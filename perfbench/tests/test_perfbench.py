"""Tests of the benchmark itself (not of marcsim).

Run from the root of a checkout:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import check  # noqa: E402
import run  # noqa: E402
from record_reference import record  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

TINY = {
    "tiny": Workload(
        "tiny",
        ("--figure", "custom", "--scheme", "anc,df", "--relays", "1,2", "--snr", "0,10"),
        2000,
        2,
        "every Monte Carlo and analytic column, through the process pool",
    )
}


def _reference(name: str) -> str:
    with open(os.path.join(run.REFERENCE_DIR, f"{name}.csv"), encoding="utf-8") as fh:
        return fh.read()


def _edit(text: str, row: int, col: str, value: str) -> str:
    lines = text.split("\n")
    fields = lines[row].split(",")
    fields[check.CSV_HEADER.split(",").index(col)] = value
    lines[row] = ",".join(fields)
    return "\n".join(lines)


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, run.layer_unit(k)) for k in run.PER_LAYER]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_references_pass_their_own_check(name):
    ref = _reference(name)
    res = check.check_csv(ref, ref, WORKLOADS[name].trials)
    assert (res.failed, res.identical, res.problems) == (0, True, [])
    assert res.cells == ref.count("\n") - 1


@pytest.mark.parametrize(
    "col, value",
    [
        ("ser_quadrature", "0.25"),      # analytic column off
        ("p_s", "0.33333334"),           # allocation off by 2e-8 relative
        ("ser_mc", "0.5"),               # ser_ci no longer matches
        ("ser_ci", "0.01"),              # not a Wilson half-width of ser_mc
        ("flags", "alloc=equal"),
        ("ser_mc", "nan-ish"),
    ],
)
def test_checker_flags_a_tampered_row(col, value):
    ref = _reference("power_alloc")
    res = check.check_csv(_edit(ref, 1, col, value), ref, WORKLOADS["power_alloc"].trials)
    assert res.failed == 1 and not res.identical, res.problems


def test_checker_flags_a_wrong_error_rate():
    """A consistent (ser_mc, ser_ci) pair 30% off the reference, the way a
    wrong detector would move it, fails the statistical bound."""
    ref = _reference("ser_mpsk_hi")
    p, ci = (float(x) for x in ref.split("\n")[1].split(",")[4:6])
    n = check._trials_from_ci(p, ci)
    errors = round(1.3 * p * n)
    lo, hi = check._wilson(errors / n, n, check._Z95)
    tampered = _edit(_edit(ref, 1, "ser_mc", repr(errors / n)), 1, "ser_ci", repr((hi - lo) / 2))
    res = check.check_csv(tampered, ref, WORKLOADS["ser_mpsk_hi"].trials)
    assert res.failed == 1 and "bound" in res.problems[0]


def test_checker_flags_a_tampered_outage_row():
    ref = _reference("outage_relays")
    lines = ref.split("\n")
    row = next(i for i, line in enumerate(lines[1:], 1) if 0.01 < float(line.split(",")[8]) < 0.3)
    p = float(lines[row].split(",")[8])
    tampered = _edit(ref, row, "outage_mc", repr(min(1.0, 3 * p)))
    assert check.check_csv(tampered, ref, WORKLOADS["outage_relays"].trials).failed == 1


def test_checker_flags_a_dropped_row():
    ref = _reference("ser_bpsk_pool")
    lines = ref.split("\n")
    dropped = "\n".join(lines[:5] + lines[6:])
    res = check.check_csv(dropped, ref, WORKLOADS["ser_bpsk_pool"].trials)
    assert res.failed >= 1 and res.cells == ref.count("\n") - 1


def test_checker_flags_a_worker_order_swap():
    ref = _reference("ser_bpsk_pool")
    lines = ref.split("\n")
    lines[3], lines[4] = lines[4], lines[3]
    res = check.check_csv("\n".join(lines), ref, WORKLOADS["ser_bpsk_pool"].trials)
    assert res.failed == 2


def test_checker_flags_a_wrong_header():
    ref = _reference("ser_mpsk_hi")
    res = check.check_csv(ref.replace("ser_mc", "ser", 1), ref, WORKLOADS["ser_mpsk_hi"].trials)
    assert res.failed == res.cells == 8


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    ref_dir = str(tmp_path_factory.mktemp("reference"))
    record(TINY, ref_dir)
    return ref_dir


@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric_with_its_unit(tiny_reference, trace):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = run.main(
            ["--workload", "tiny", "--seed", "5", "--seconds", "0.1", "--trace", str(trace)],
            workloads=TINY, reference_dir=tiny_reference, setup_runs=1,
        )
    assert rc == 0
    lines = out.getvalue().strip().splitlines()
    result = json.loads(lines[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0, out.getvalue()
    expected = {k: run.layer_unit(k) for k in run.PER_LAYER} if trace else run.END_TO_END
    assert {k: m["unit"] for k, m in result["metrics"].items()} == expected
    for k, unit in {**expected, **run.END_TO_END, "cells_failed": "frac"}.items():
        assert any(line.split()[:1] == [k] and unit in line.split() for line in lines[:-1]), k
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert abs(m["trace.accounted_frac"] - 1.0) < 0.01
        assert m["montecarlo.estimate_ser.calls"] == 8 and m["montecarlo.estimate_outage.trials"] == 16000
        assert m["check.csv_identical"] == 1


def _traced_counts(tmp_path, tag):
    from marcsim import cli
    from spans import Tracer, layer_metrics

    argv = ["--figure", "fig5", "--relays", "1,2", "--snr", "10", "--trials", "3000", "--seed", "9",
            "--out", str(tmp_path / tag / "x.csv")]
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    m = layer_metrics(tracer.spans, 1.0)
    return {k: v for k, v in m.items() if k.endswith((".calls", ".trials", ".hypotheses"))}


def test_counts_repeat_exactly_at_one_seed(tmp_path):
    first = _traced_counts(tmp_path, "a")
    assert first == _traced_counts(tmp_path, "b")
    assert first["power.objective.calls"] > 0 and first["montecarlo.estimate_ser.hypotheses"] > 0


def test_tracer_restores_every_function():
    import marcsim
    from marcsim import analytic, experiment, power
    from spans import Tracer

    before = [experiment.ser_quadrature, power.ser_quadrature, analytic.ser_quadrature, marcsim.estimate_ser]
    with Tracer():
        assert experiment.ser_quadrature is not before[0] and power.ser_quadrature is not before[1]
    assert [experiment.ser_quadrature, power.ser_quadrature, analytic.ser_quadrature,
            marcsim.estimate_ser] == before


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "power_alloc", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
