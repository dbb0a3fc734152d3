"""Benchmark of marcsim's figure sweeps, end to end and layer by layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

It runs the sources under src/ (never an installed copy).  With --trace 0 it
times fresh-process imports (setup_s), then sweeps and resumes through
`marcsim.cli.main` for S seconds in a separate process (sweep.py), and prints
sweep_s and resume_s (upper quartiles of the run's samples), setup_s (median)
and peak_rss_mb.  With --trace 1 it adds three traced serial sweeps and prints
the per-layer metrics instead.  Every CSV is checked
against perfbench/reference/ (check.py); the resume and worker-count
determinism checks compare bytes.  The last stdout line is one JSON object
{"correct", "attempted", "failed", "metrics"}; a result file with the
environment goes to .perfbench_runs/.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys

from check import check_csv
from workloads import REFERENCE_SEED, WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
REFERENCE_DIR = os.path.join(HERE, "reference")
RUNS_DIR = os.path.join(ROOT, ".perfbench_runs")  # result files and scratch output
SETUP_RUNS = 5
SWEEP_TIMEOUT_S = 150

END_TO_END = {"sweep_s": "s", "resume_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

_GRID = [f"anc.m2.n{n}" for n in (1, 2, 3, 4, 5, 10)] + [f"df.m2.n{n}" for n in (1, 2, 5, 10)] + [
    f"{s}.m{m}.n{n}" for s in ("anc", "df") for m in (8, 16) for n in (1, 3)
]
PER_LAYER = [
    "montecarlo.estimate_ser.busy_s",
    "montecarlo.estimate_ser.calls",
    "montecarlo.estimate_ser.trials",
    "montecarlo.estimate_ser.trials_used_frac",
    "montecarlo.estimate_ser.hypotheses",
    "montecarlo.estimate_ser.ns_per_hypothesis",
    "montecarlo.estimate_outage.busy_s",
    "montecarlo.estimate_outage.trials",
    "montecarlo.estimate_outage.ns_per_trial",
    *(f"montecarlo.trials_per_s.{g}" for g in _GRID),
    "analytic.ser_quadrature.calls",
    "analytic.ser_quadrature.busy_s",
    "analytic.ser_closed_form.busy_s",
    "power.numeric_allocation.calls",
    "power.numeric_allocation.busy_s",
    "power.objective.calls",
    "power.objective.us_per_call",
    "discrepancy.collect_all.busy_s",
    "experiment.self_s",
    "experiment.cell_s",
    "experiment.bytes_written",
    "experiment.pool_efficiency",
    "cli.self_s",
    "trace.sweep_s",
    "trace.overhead_frac",
    "trace.accounted_frac",
    "check.csv_identical",
]

_UNIT_BY_SUFFIX = {
    "busy_s": "s", "self_s": "s", "cell_s": "s", "sweep_s": "s", "calls": "count", "trials": "count",
    "hypotheses": "count", "csv_identical": "count", "ns_per_hypothesis": "ns", "ns_per_trial": "ns",
    "us_per_call": "us", "bytes_written": "bytes",
}


def layer_unit(name: str) -> str:
    if ".trials_per_s." in name:
        return "1/s"
    suffix = name.rsplit(".", 1)[1]
    return _UNIT_BY_SUFFIX.get(suffix, "frac")


def upper_quartile(samples: list[float]) -> float:
    """75th percentile, interpolated between order statistics.

    Sweep and resume times on a shared machine fall into a fast and a slow
    mode about 1.5x apart, each lasting seconds.  A run's median flips between
    the modes with the share of its window each held; the upper quartile stays
    in the usual (slow) mode and moves only when the work itself does.
    """
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


class SetupError(RuntimeError):
    """The checkout's own marcsim sources cannot be imported."""


def _child_env() -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


_PROBE = (
    "import time; t = time.perf_counter(); import marcsim; dt = time.perf_counter() - t\n"
    "import json, sys, numpy, scipy\n"
    "print(json.dumps({'import_s': dt, 'file': marcsim.__file__, 'python': sys.version.split()[0],"
    " 'numpy': numpy.__version__, 'scipy': scipy.__version__}))"
)


def measure_setup(runs: int) -> tuple[list[float], dict]:
    """Import marcsim in ``runs`` fresh processes; returns the import times and
    the library versions."""
    src = os.path.join(ROOT, "src") + os.sep
    times, info = [], {}
    for _ in range(runs):
        proc = subprocess.run(
            [sys.executable, "-c", _PROBE], cwd=ROOT, env=_child_env(),
            capture_output=True, text=True, timeout=60,
        )
        if proc.returncode != 0:
            raise SetupError(f"cannot import marcsim from {src}: {proc.stderr.strip()[-300:]}")
        info = json.loads(proc.stdout.strip().splitlines()[-1])
        if not os.path.abspath(info["file"]).startswith(src):
            raise SetupError(f"marcsim imported from {info['file']}, not from {src}")
        times.append(info["import_s"])
    return times, info


def _git_sha() -> str:
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def run_sweeps(job: dict) -> dict:
    """Run sweep.py on ``job`` in its own process group and return its report."""
    job_path = os.path.join(job["out_dir"], "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "sweep.py"), job_path],
        cwd=ROOT, env=_child_env(), start_new_session=True,
    )
    try:
        rc = proc.wait(timeout=SWEEP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        raise
    if rc != 0:
        raise RuntimeError(f"sweep process exited with code {rc}")
    with open(os.path.join(job["out_dir"], "report.json"), encoding="utf-8") as fh:
        return json.load(fh)


class Tally:
    """Checked operations: one per CSV row, resume pass and byte comparison."""

    def __init__(self):
        self.attempted = self.failed = self.cells = self.cells_failed = 0
        self.problems: list[str] = []

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)

    def csv(self, rec: dict, reference: str, cap: int) -> bytes | None:
        """Check one sweep's CSV; returns its bytes when the sweep succeeded."""
        if rec["rc"] != 0:
            n = reference.count("\n") - 1
            self.attempted += n
            self.failed += n
            self.cells += n
            self.cells_failed += n
            self.problems.append(f"{rec['tag']}: marcsim exited with code {rec['rc']}")
            return None
        with open(rec["csv"], "rb") as fh:
            data = fh.read()
        res = check_csv(data.decode("utf-8", "replace"), reference, cap)
        self.attempted += res.cells
        self.failed += res.failed
        self.cells += res.cells
        self.cells_failed += res.failed
        self.problems += [f"{rec['tag']}: {p}" for p in res.problems]
        return data


def evaluate(report: dict, reference: str, cap: int, trace: bool) -> tuple[Tally, dict]:
    """Check every CSV of a report; returns the tally and the layer extras."""
    t = Tally()
    serial = t.csv(report["warm"], reference, cap)
    for rec in report["sweeps"]:
        data = t.csv(rec, reference, cap)
        if data is not None and serial is not None:
            t.op(data == serial, f"{rec['tag']}: CSV differs from the serial run of the same seed")
        for i, same in enumerate(rec["resume_same"]):
            t.op(same, f"{rec['tag']}: resume {i + 1} did not rewrite the same CSV bytes")
    extras = {}
    if trace:
        for rec in report["traced"]:
            traced = t.csv(rec, reference, cap)
            if traced is not None and serial is not None:
                t.op(traced == serial, f"{rec['tag']}: CSV differs from the untraced serial run")
        t.op("layers" in report, "traced: no layer metrics")
        ref_data = t.csv(report["reference"], reference, cap)
        extras["check.csv_identical"] = int(ref_data == reference.encode("utf-8"))
    return t, extras


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None, workloads=WORKLOADS, reference_dir=REFERENCE_DIR, setup_runs=SETUP_RUNS) -> int:
    args = parse_args(argv)
    if args.workload not in workloads:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads)}", file=sys.stderr)
        return 2
    if args.seed < 0:
        print("--seed must be nonnegative", file=sys.stderr)
        return 2
    w = workloads[args.workload]
    try:
        with open(os.path.join(reference_dir, f"{w.name}.csv"), encoding="utf-8") as fh:
            reference = fh.read()
        setup, info = measure_setup(setup_runs if not args.trace else 1)
    except (OSError, SetupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    runs_dir = RUNS_DIR
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    out_dir = os.path.join(runs_dir, tag)
    shutil.rmtree(out_dir, ignore_errors=True)
    os.makedirs(out_dir)
    job = {
        "workload": dataclasses.asdict(w), "seed": args.seed, "reference_seed": REFERENCE_SEED,
        "seconds": args.seconds, "trace": args.trace, "out_dir": out_dir,
    }
    try:
        report = run_sweeps(job)
        tally, extras = evaluate(report, reference, w.trials, bool(args.trace))
    except (OSError, RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    sweeps = report["sweeps"]
    resumes = [x for s in sweeps for x in s["resume_s"]]
    measured = {
        "sweep_s": upper_quartile([s["sweep_s"] for s in sweeps]),
        "resume_s": upper_quartile(resumes) if len(resumes) > 1 else 0.0,  # none: failed sweeps
        "setup_s": statistics.median(setup),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    if args.trace:
        layers = {**report.get("layers", {}), **extras}
        metrics = {k: {"value": layers.get(k, 0.0), "unit": layer_unit(k)} for k in PER_LAYER}
    else:
        metrics = {k: {"value": measured[k], "unit": u} for k, u in END_TO_END.items()}

    env = {
        "git_sha": _git_sha(), "nproc": len(os.sched_getaffinity(0)), "python": info["python"],
        "numpy": info["numpy"], "scipy": info["scipy"], "batch_size": report["batch_size"],
        "seed": args.seed, "trial_cap": w.trials, "workers": w.workers,
        "workload_args": list(w.args), "seconds": args.seconds, "sweeps": len(sweeps),
    }
    cells_failed = tally.cells_failed / tally.cells if tally.cells else 1.0
    result = {"correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
              "metrics": metrics}
    with open(os.path.join(runs_dir, tag + ".json"), "w", encoding="utf-8") as fh:
        json.dump({"env": env, "result": result, "measured": measured, "cells_failed": cells_failed,
                   "layers": report.get("layers"), "samples": {
                       "setup_s": setup, "sweep_s": [s["sweep_s"] for s in sweeps],
                       "resume_s": resumes},
                   "problems": tally.problems}, fh, indent=1)
    shutil.rmtree(out_dir, ignore_errors=True)

    print(f"workload {w.name}: {w.why}")
    print("env " + json.dumps(env))
    for k, v in measured.items():
        print(f"  {k:<44} {v:14.6g} {END_TO_END[k]}")
    print(f"  {'cells_failed':<44} {cells_failed:14.6g} frac ({tally.cells_failed} of {tally.cells} cells)")
    if args.trace:
        for k, m in metrics.items():
            print(f"  {k:<44} {m['value']:14.6g} {m['unit']}")
    for p in tally.problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
