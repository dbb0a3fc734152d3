import concurrent.futures
import math
import os
import threading
from pathlib import Path

import pytest

import marcsim
from marcsim import experiment, montecarlo
from marcsim.analytic import BestRelayDistribution, best_cdf
from marcsim.experiment import (
    CSV_HEADER,
    ExperimentSpec,
    SpecValidationError,
    parse_field,
    run_experiment,
    spec_from_text,
    spec_to_text,
    validate_spec,
)
from marcsim.cli import main
from marcsim.model import Scheme, SystemConfig, bottleneck_rate
from marcsim.power import PowerSplit


def small_spec(tmp_path, **kw):
    base = dict(
        figure="custom",
        snr_points_db=[5.0, 10.0],
        relay_counts=[2],
        trials=4000,
        seed=7,
        schemes=[Scheme.DF_NC],
        mod_orders=[2],
        output_path=str(tmp_path / "out.csv"),
    )
    base.update(kw)
    return ExperimentSpec(**base)


# -- validation ---------------------------------------------------------------


def test_defaults_filled():
    res = validate_spec(ExperimentSpec(figure="fig2"))
    assert res.ok
    s = res.spec
    assert s.figure == "fig2_ser_vs_snr_mpsk"
    assert s.trials == 10**6 and s.seed == 42 and s.gamma_th == 1.0
    assert s.mod_orders == [2, 8]
    assert s.relay_counts == [1, 2, 3, 4, 5]
    assert s.snr_points_db[0] == 0.0 and s.snr_points_db[-1] == 25.0


def test_all_violations_reported():
    res = validate_spec(
        ExperimentSpec(
            figure="fig3", snr_points_db=[], relay_counts=[0], trials=-1, schemes=["anc"]
        )
    )
    assert not res.ok
    joined = " ".join(res.errors)
    assert "snr_points_db" in joined
    assert "relay_counts" in joined and ">= 1" in joined
    assert "trials" in joined
    # a scheme must be a Scheme member, not its string value
    assert "schemes" in joined


def test_bool_counts_rejected():
    # bool is an int subclass: True must not validate as one trial
    res = validate_spec(ExperimentSpec(trials=True, seed=False))
    joined = " ".join(res.errors)
    assert "trials" in joined and "seed" in joined
    res = validate_spec(ExperimentSpec(relay_counts=[True]))
    assert any("relay_counts" in e for e in res.errors)
    res = validate_spec(ExperimentSpec(p_total=True))
    assert any("p_total" in e for e in res.errors)
    res = validate_spec(ExperimentSpec(gamma_th=True))
    assert any("gamma_th" in e for e in res.errors)


def test_huge_trials_warn_but_valid():
    res = validate_spec(ExperimentSpec(figure="fig4", trials=10**12))
    assert res.ok
    assert any("trials" in w for w in res.warnings)


def test_unsorted_snr_rejected():
    res = validate_spec(ExperimentSpec(snr_points_db=[5.0, 5.0]))
    assert any("strictly increasing" in e for e in res.errors)


def test_snr_range_point_count_is_capped():
    # 100,001 points, which the parser builds quickly if the cap is gone; a
    # step of 1e-300 would not finish
    with pytest.raises(ValueError, match="snr_points_db"):
        parse_field("snr_points_db", "0:1:1e-5")
    assert len(parse_field("snr_points_db", "0:9999:1")) == 10_000


def test_ptotal_replaces_snr_axis():
    res = validate_spec(ExperimentSpec(figure="fig5", p_total=9.0))
    assert res.ok
    assert res.spec.snr_points_db == [10.0 * math.log10(9.0)]


@pytest.mark.parametrize("p_total", [None, 5.0])
@pytest.mark.parametrize("figure", [f.alias for f in experiment._FIGURES.values()])
def test_validate_spec_is_idempotent(figure, p_total):
    # run_experiment validates the spec that main has already validated
    first = validate_spec(ExperimentSpec(figure=figure, p_total=p_total))
    assert first.ok
    again = validate_spec(first.spec)
    assert again.errors == []
    assert again.spec == first.spec


def test_roundtrip_serialization():
    filled = validate_spec(ExperimentSpec(figure="fig3")).spec
    again = spec_from_text(spec_to_text(filled))
    assert again == filled


def test_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown key"):
        spec_from_text("nonsense=1\n")


# -- running -------------------------------------------------------------------


def test_invalid_spec_creates_no_file(tmp_path):
    spec = small_spec(tmp_path, snr_points_db=[])
    with pytest.raises(SpecValidationError):
        run_experiment(spec)
    assert not os.path.exists(spec.output_path)


def test_custom_run_layout_and_agreement(tmp_path):
    spec = small_spec(tmp_path, trials=40_000)
    result = run_experiment(spec)
    lines = open(spec.output_path).read().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2  # two SNR points
    # unflagged-model row check: DF outage within 4 standard errors
    for row in result.rows:
        cols = row.split(",")
        n, snr = int(cols[2]), float(cols[3])
        outage_mc, outage_an = float(cols[8]), float(cols[9])
        se = math.sqrt(max(outage_an * (1 - outage_an), 1e-12) / spec.trials)
        assert abs(outage_mc - outage_an) < 4 * se
        assert "relay_mai" in cols[12]
    assert os.path.exists(spec.output_path + ".meta")
    meta = open(spec.output_path + ".meta").read()
    assert "discrepancy.mgf_shared_pole" in meta
    assert "discrepancy.power_allocation_closed_form" in meta


def test_fig2_row_count(tmp_path):
    spec = ExperimentSpec(
        figure="fig2",
        snr_points_db=[0.0, 10.0],
        relay_counts=[1, 2],
        trials=2000,
        output_path=str(tmp_path / "fig2.csv"),
    )
    run_experiment(spec)
    lines = open(spec.output_path).read().splitlines()
    assert len(lines) == 1 + 2 * 2 * 2  # (M=2,8) x (N=1,2) x 2 SNRs
    closed_col = [line.split(",")[7] for line in lines[1:]]
    m_col = [line.split(",")[1] for line in lines[1:]]
    for m, closed in zip(m_col, closed_col):
        assert (closed == "") == (m == "8")  # closed form only defined for BPSK
    # analytic SER column strictly decreasing in N within each (M, SNR) group
    by_group = {}
    for line in lines[1:]:
        cols = line.split(",")
        by_group.setdefault((cols[1], cols[3]), []).append((int(cols[2]), float(cols[6])))
    for group in by_group.values():
        ordered = [v for _, v in sorted(group)]
        assert all(b < a for a, b in zip(ordered, ordered[1:]))


def test_fig5_rows_have_allocations(tmp_path):
    spec = ExperimentSpec(
        figure="fig5",
        snr_points_db=[10.0],
        relay_counts=[2],
        trials=2000,
        output_path=str(tmp_path / "fig5.csv"),
    )
    run_experiment(spec)
    rows = open(spec.output_path).read().splitlines()[1:]
    flags = [r.split(",")[12] for r in rows]
    assert any("alloc=equal" in f for f in flags)
    assert any("alloc=optimized" in f for f in flags)
    eq = next(r for r in rows if "alloc=equal" in r)
    opt = next(r for r in rows if "alloc=optimized" in r)
    # optimized analytic SER never above the equal split's
    assert float(opt.split(",")[6]) <= float(eq.split(",")[6])
    # power columns are plain shortest-round-trip decimals
    for r in rows:
        assert "np.float64" not in r
        assert float(r.split(",")[10]) > 0 and float(r.split(",")[11]) > 0


def test_byte_identical_reruns(tmp_path):
    spec_a = small_spec(tmp_path, output_path=str(tmp_path / "a.csv"))
    spec_b = small_spec(tmp_path, output_path=str(tmp_path / "b.csv"))
    run_experiment(spec_a)
    run_experiment(spec_b)
    assert open(spec_a.output_path, "rb").read() == open(spec_b.output_path, "rb").read()


def sweep_bytes(spec, workers):
    """CSV, .meta and .journal bytes of a fresh run of ``spec``."""
    paths = [spec.output_path + ext for ext in ("", ".meta", ".journal")]
    for path in paths:
        if os.path.exists(path):
            os.remove(path)
    run_experiment(spec, workers=workers)
    return [Path(path).read_bytes() for path in paths]


def test_worker_count_does_not_change_output(tmp_path):
    out = str(tmp_path / "w.csv")
    specs = [
        small_spec(tmp_path, output_path=out),
        ExperimentSpec(figure="fig2", snr_points_db=[10.0], trials=3000, seed=7, output_path=out),
        ExperimentSpec(figure="fig3", snr_points_db=[0.0, 10.0], trials=3000, seed=7, output_path=out),
        ExperimentSpec(figure="fig4", snr_points_db=[5.0], trials=3000, seed=7, output_path=out),
        ExperimentSpec(figure="fig5", snr_points_db=[10.0], trials=3000, seed=7, output_path=out),
    ]
    for spec in specs:
        serial = sweep_bytes(spec, 1)
        assert sweep_bytes(spec, 2) == serial, spec.figure
        assert sweep_bytes(spec, 3) == serial, spec.figure


def test_resume_skips_completed_cells(tmp_path):
    spec = small_spec(tmp_path)
    run_experiment(spec)
    csv_first = open(spec.output_path, "rb").read()
    journal = spec.output_path + ".journal"
    lines = open(journal).read().splitlines()
    # drop the last completed cell and rerun; only that cell is redone
    open(journal, "w").write("\n".join(lines[:-1]) + "\n")
    os.remove(spec.output_path)
    run_experiment(spec)
    assert open(spec.output_path, "rb").read() == csv_first


def test_pool_capped_at_pending_cells(tmp_path, monkeypatch):
    # this stand-in records the pool's size and runs each cell in this
    # thread, so no test starts thousands of threads
    opened = []

    class InlinePool:
        def __init__(self, max_workers):
            opened.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = concurrent.futures.Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(experiment.concurrent.futures, "ThreadPoolExecutor", InlinePool)
    spec = small_spec(tmp_path)
    run_experiment(spec, workers=5000)
    assert opened == [len(spec.snr_points_db)]


def count_computed_cells(monkeypatch):
    calls = []
    compute = experiment._compute_cell

    def counted(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(experiment, "_compute_cell", counted)
    return calls


def test_interrupted_threaded_sweep_resumes_to_same_bytes(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, snr_points_db=[0.0, 5.0, 10.0, 15.0, 20.0])
    reference = small_spec(tmp_path, snr_points_db=spec.snr_points_db, output_path=str(tmp_path / "ref.csv"))
    run_experiment(reference)
    compute = experiment._compute_cell

    def failing(spec, cell, *args):
        if cell.snr_db == 10.0:
            raise RuntimeError("simulated cell failure")
        return compute(spec, cell, *args)

    monkeypatch.setattr(experiment, "_compute_cell", failing)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match="simulated"):
        run_experiment(spec, workers=2)
    assert threading.active_count() == threads_before
    journal = Path(spec.output_path + ".journal").read_text(encoding="utf-8")
    header, *lines = journal.split("\n")
    assert header.startswith("#config=") and lines[-1] == ""
    assert 0 < len(lines) - 1 < len(spec.snr_points_db)
    for line in lines[:-1]:
        key, tab, row = line.partition("\t")
        assert tab and row.count(",") == CSV_HEADER.count(",")
    monkeypatch.setattr(experiment, "_compute_cell", compute)
    run_experiment(spec, workers=2)
    assert Path(spec.output_path).read_bytes() == Path(reference.output_path).read_bytes()


def test_ctrl_c_journals_the_cells_that_finish_during_the_wait(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, snr_points_db=[0.0, 5.0, 10.0, 15.0, 20.0])
    reference = small_spec(tmp_path, snr_points_db=spec.snr_points_db, output_path=str(tmp_path / "ref.csv"))
    run_experiment(reference)
    compute = experiment._compute_cell
    next_cell_running = threading.Event()

    # the 10 dB cell is interrupted while the 15 dB cell runs on the other thread
    def interrupted(spec, cell, *args):
        if cell.snr_db == 10.0:
            assert next_cell_running.wait(timeout=60)
            raise KeyboardInterrupt
        if cell.snr_db == 15.0:
            next_cell_running.set()
        return compute(spec, cell, *args)

    monkeypatch.setattr(experiment, "_compute_cell", interrupted)
    threads_before = threading.active_count()
    with pytest.raises(KeyboardInterrupt):
        run_experiment(spec, workers=2)
    assert threading.active_count() == threads_before
    journal = Path(spec.output_path + ".journal").read_text(encoding="utf-8")
    journaled = {float(line.split(";")[3].removeprefix("snr=")) for line in journal.splitlines()[1:]}
    assert {0.0, 5.0, 15.0} <= journaled and 10.0 not in journaled
    monkeypatch.setattr(experiment, "_compute_cell", compute)
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec, workers=2)
    assert {cell.snr_db for _, cell, _ in calls} == set(spec.snr_points_db) - journaled
    assert Path(spec.output_path).read_bytes() == Path(reference.output_path).read_bytes()


def test_torn_journal_resumes_to_original_bytes(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, schemes=[Scheme.ANC])
    run_experiment(spec)
    csv_first = open(spec.output_path, "rb").read()
    journal = spec.output_path + ".journal"
    journal_first = open(journal, "rb").read()
    # an interrupted write leaves the last row without its last five bytes;
    # its comma count still matches the schema
    open(journal, "wb").write(journal_first[:-5])
    os.remove(spec.output_path)
    run_experiment(spec)
    assert open(spec.output_path, "rb").read() == csv_first
    assert open(journal, "rb").read() == journal_first
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec)
    assert calls == []
    assert open(spec.output_path, "rb").read() == csv_first


def test_failed_replace_keeps_previous_csv(tmp_path, monkeypatch):
    spec = small_spec(tmp_path)
    run_experiment(spec)
    csv_first = open(spec.output_path, "rb").read()
    listing = sorted(os.listdir(tmp_path))

    def failing_replace(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(experiment.os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        run_experiment(spec)
    assert open(spec.output_path, "rb").read() == csv_first
    assert sorted(os.listdir(tmp_path)) == listing


def test_batch_size_change_invalidates_journal(tmp_path, monkeypatch):
    spec = small_spec(tmp_path)
    run_experiment(spec)
    journal = spec.output_path + ".journal"
    header = open(journal).readline()
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", montecarlo.BATCH_SIZE // 2)
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec)
    assert open(journal).readline() != header
    assert len(calls) == len(spec.snr_points_db)


def test_journal_of_previous_version_not_resumed(tmp_path, monkeypatch):
    # 0.3.0 draws fading gain first: a 0.2.0 journal holds rows of the old
    # random stream and must be recomputed, not resumed
    assert marcsim.__version__ != "0.2.0"
    spec = small_spec(tmp_path)
    monkeypatch.setattr(experiment, "__version__", "0.2.0")
    run_experiment(spec)
    journal = spec.output_path + ".journal"
    header = open(journal).readline()
    monkeypatch.setattr(experiment, "__version__", marcsim.__version__)
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec)
    assert open(journal).readline() != header
    assert len(calls) == len(spec.snr_points_db)


def test_stale_journal_discarded(tmp_path):
    spec = small_spec(tmp_path)
    journal = spec.output_path + ".journal"
    os.makedirs(tmp_path, exist_ok=True)
    open(journal, "w").write("#config=deadbeef\nbogus\tline\n")
    run_experiment(spec)
    assert "#config=deadbeef" not in open(journal).read()


# -- CLI -----------------------------------------------------------------------


def test_cli_success(tmp_path, capsys):
    out = str(tmp_path / "cli.csv")
    code = main(
        [
            "--figure",
            "custom",
            "--scheme",
            "df",
            "--relays",
            "1",
            "--snr",
            "10",
            "--trials",
            "2000",
            "--out",
            out,
        ]
    )
    assert code == 0
    assert os.path.exists(out)
    assert "wrote 1 rows" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags, field",
    [
        (["--relays", "0"], "relay_counts"),
        (["--gamma-th", "nan"], "gamma_th"),
        (["--snr", "0,nan"], "snr_points_db"),
        (["--ptotal", "nan"], "p_total"),
        (["--ptotal", "inf"], "p_total"),
        (["--relays", "abc"], "relay_counts"),
        (["--trials", "abc"], "trials"),
        (["--trials", "1.5"], "trials"),
        (["--seed", "-"], "seed"),
        (["--gamma-th", "x"], "gamma_th"),
        (["--ptotal", "zz"], "p_total"),
        (["--workers", "abc"], "workers"),
        (["--workers", "0"], "workers"),
        (["--snr=4000"], "snr_points_db"),
        (["--snr=-4000"], "snr_points_db"),
        (["--ptotal", "1e-320"], "p_total"),
        (["--relays", "65"], "relay_counts"),
        (["--scheme", "anc,df", "--relays", "1,3", "--ptotal", "1e-307"], "p_total"),
        # N*eta is finite here, but the series' coefficient C(3,2)*2 = 6 times eta is not
        (["--scheme", "anc,df", "--relays", "1,3", "--ptotal", "2.6e-307"], "p_total"),
        (["--figure", "fig5", "--ptotal", "1e-305"], "p_total"),
        # finite rates, but gamma_s*g*gamma_r*g overflows in the Monte Carlo's ANC SNR
        (["--scheme", "anc,df", "--relays", "1,3", "--snr", "2000"], "snr_points_db"),
        (["--scheme", "anc,df", "--relays", "1", "--ptotal", "1e308"], "p_total"),
        (["--relays", "1,1"], "relay_counts"),
        (["--mod", "2,2"], "mod_orders"),
        (["--scheme", "df,df"], "schemes"),
    ],
    ids=[
        "relays-0", "gamma_th-nan", "snr-nan", "ptotal-nan", "ptotal-inf",
        "relays-abc", "trials-abc", "trials-1.5", "seed-dash", "gamma_th-x", "ptotal-zz",
        "workers-abc", "workers-0", "snr-overflow", "snr-underflow", "ptotal-subnormal",
        "relays-65-ser", "ptotal-series-overflow", "ptotal-series-coefficient", "ptotal-allocator-edge",
        "snr-mc-overflow", "ptotal-mc-overflow", "relays-repeat", "mod-repeat", "scheme-repeat",
    ],
)
def test_cli_validation_failure(tmp_path, capsys, flags, field):
    base = ["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "10", "--trials", "1000"]
    code = main([*base, *flags, "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert field in capsys.readouterr().err


@pytest.mark.parametrize("trailing_sep", [False, True], ids=["existing-dir", "trailing-sep"])
def test_cli_rejects_a_directory_output_path(tmp_path, capsys, trailing_sep):
    out = str(tmp_path / "new") + os.sep if trailing_sep else str(tmp_path)
    code = main(["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "10",
                 "--trials", "1000", "--out", out])
    assert code == 1
    assert "output_path" in capsys.readouterr().err
    # rejected before any cell runs: no journal, and no directory made
    assert os.listdir(tmp_path) == []
    assert not os.path.exists(str(tmp_path) + ".journal")


def test_outage_figure_accepts_many_relays(tmp_path):
    # the 64-relay cap belongs to the analytic SER series; fig4 never sums it
    out = str(tmp_path / "fig4.csv")
    code = main(["--figure", "fig4", "--relays", "65", "--snr", "10", "--trials", "1000", "--out", out])
    assert code == 0
    assert len(csv_rows(out)) == 2  # ANC and DF


def csv_rows(path):
    return [r.split(",") for r in open(path).read().splitlines()[1:]]


def test_cli_ptotal_is_the_budget(tmp_path):
    # 5 does not survive the round trip through dB: 10 ** (10 * log10(5) / 10) != 5
    out = str(tmp_path / "pt.csv")
    code = main(
        ["--figure", "custom", "--scheme", "df", "--relays", "1", "--ptotal", "5",
         "--trials", "1000", "--out", out]
    )
    assert code == 0
    ((*_, p_s, p_r, _flags),) = csv_rows(out)
    split = PowerSplit.equal(5.0)
    assert (float(p_s), float(p_r)) == (split.p_source, split.p_relay)


def test_outage_analytic_at_the_row_powers(tmp_path):
    out = str(tmp_path / "fig4.csv")
    code = main(
        ["--figure", "fig4", "--scheme", "anc", "--relays", "1,2", "--snr", "10,25",
         "--trials", "2000", "--out", out]
    )
    assert code == 0
    rows = csv_rows(out)
    assert len(rows) == 4
    for cols in rows:
        n, p_s, p_r = int(cols[2]), float(cols[10]), float(cols[11])
        config = SystemConfig(n, p_s, p_r, scheme=Scheme.ANC)
        expected = best_cdf(BestRelayDistribution(n, bottleneck_rate(config)), 1.0)
        assert float(cols[9]) == expected


def test_cli_unknown_figure(tmp_path, capsys):
    code = main(["--figure", "fig9", "--out", str(tmp_path / "x.csv")])
    assert code == 1


def test_cli_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "spec.cfg"
    cfg.write_text(
        "figure=custom\nschemes=df\nrelay_counts=1\nsnr_points_db=10.0\n"
        f"trials=1500\noutput_path={tmp_path / 'from_file.csv'}\n"
    )
    out = str(tmp_path / "override.csv")
    code = main(["--config", str(cfg), "--out", out, "--snr", "5"])
    assert code == 0
    assert os.path.exists(out)
    rows = open(out).read().splitlines()[1:]
    assert len(rows) == 1 and rows[0].split(",")[3] == "5.0"


def test_cli_snr_range_syntax(tmp_path):
    out = str(tmp_path / "range.csv")
    code = main(
        ["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "0:10:5",
         "--trials", "1000", "--out", out]
    )
    assert code == 0
    snrs = [r.split(",")[3] for r in open(out).read().splitlines()[1:]]
    assert snrs == ["0.0", "5.0", "10.0"]


def test_cli_runtime_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(
        ["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "10",
         "--trials", "1000", "--out", str(blocker / "out.csv")]
    )
    assert code == 2
