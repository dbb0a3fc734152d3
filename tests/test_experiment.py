import concurrent.futures
import dataclasses
import math
import os
import sys
import threading
import tomllib
from pathlib import Path

import numpy as np
import pytest

import marcsim
from oracles import chunked_stage2
from marcsim import cli, experiment, montecarlo
from marcsim.analytic import BestRelayDistribution, best_cdf, bottleneck_rate
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
from marcsim.model import Scheme, SystemConfig
from marcsim.montecarlo import estimate_group, estimate_ser, sample_best_snr
from marcsim.power import PowerSplit, allocation_edges


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
    assert s.figure == "fig2"
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
    res = validate_spec(ExperimentSpec(gamma_th=True))
    assert any("gamma_th" in e for e in res.errors)
    res = validate_spec(ExperimentSpec(snr_points_db=[True]))
    assert any("snr_points_db" in e for e in res.errors)


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


@pytest.mark.parametrize("snr_db", [None, 5.0])
@pytest.mark.parametrize("figure", list(experiment._FIGURES))
def test_validate_spec_is_idempotent(figure, snr_db):
    # run_experiment validates the spec that main has already validated
    snr_points_db = None if snr_db is None else [snr_db]
    first = validate_spec(ExperimentSpec(figure=figure, snr_points_db=snr_points_db))
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
    lines = Path(spec.output_path).read_text().splitlines()
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
    meta = Path(spec.output_path + ".meta").read_text()
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
    lines = Path(spec.output_path).read_text().splitlines()
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
    rows = Path(spec.output_path).read_text().splitlines()[1:]
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


def test_integer_snr_points_read_as_floats_in_the_csv(tmp_path, monkeypatch):
    # a library caller may pass integer SNRs: validate_spec turns them into
    # floats, so the CSV, the journal keys and the config hash are those of
    # float SNRs, and a run resumed with the other form reuses the journal
    spec = small_spec(tmp_path, snr_points_db=[0, 10], output_path=str(tmp_path / "int.csv"))
    floats = dataclasses.replace(spec, snr_points_db=[0.0, 10.0])
    assert validate_spec(spec).spec.snr_points_db == [0.0, 10.0]
    assert spec_to_text(validate_spec(spec).spec) == spec_to_text(validate_spec(floats).spec)
    run_experiment(spec)
    rows = Path(spec.output_path).read_text().splitlines()[1:]
    assert [row.split(",")[3] for row in rows] == ["0.0", "10.0"]
    journal = Path(spec.output_path + ".journal").read_text().splitlines()[1:]
    assert [line.split("\t")[0].split(";")[3] for line in journal] == ["snr=0.0", "snr=10.0"]
    written = [Path(spec.output_path + ext).read_bytes() for ext in ("", ".meta", ".journal")]

    def recomputed(*args, **kwargs):
        raise AssertionError("the float spec recomputed a cell that the integer spec journaled")

    monkeypatch.setattr(experiment, "estimate_group", recomputed)
    run_experiment(floats)
    assert [Path(spec.output_path + ext).read_bytes() for ext in ("", ".meta", ".journal")] == written


def test_byte_identical_reruns(tmp_path):
    spec_a = small_spec(tmp_path, output_path=str(tmp_path / "a.csv"))
    spec_b = small_spec(tmp_path, output_path=str(tmp_path / "b.csv"))
    run_experiment(spec_a)
    run_experiment(spec_b)
    assert Path(spec_a.output_path).read_bytes() == Path(spec_b.output_path).read_bytes()


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
        # four groups, one per (scheme, N), spread over the threads
        small_spec(
            tmp_path, schemes=[Scheme.ANC, Scheme.DF_NC], relay_counts=[1, 2], snr_points_db=[0.0, 10.0, 20.0],
            trials=3000, output_path=out,
        ),
        ExperimentSpec(figure="fig2", snr_points_db=[10.0], trials=3000, seed=7, output_path=out),
        ExperimentSpec(figure="fig3", snr_points_db=[0.0, 10.0], trials=3000, seed=7, output_path=out),
        # four groups of three SNR points each, split across the threads
        ExperimentSpec(
            figure="fig4", snr_points_db=[5.0, 10.0, 15.0], relay_counts=[1, 2], trials=3000, seed=7,
            output_path=out,
        ),
        ExperimentSpec(figure="fig5", snr_points_db=[10.0], trials=3000, seed=7, output_path=out),
    ]
    for spec in specs:
        serial = sweep_bytes(spec, 1)
        assert sweep_bytes(spec, 2) == serial, spec.figure
        assert sweep_bytes(spec, 3) == serial, spec.figure


def test_cells_read_their_groups_under_fast_thread_switching(tmp_path):
    # eight threads on a small box, switching as often as the interpreter
    # allows, while six groups run on them
    spec = small_spec(
        tmp_path, schemes=[Scheme.ANC, Scheme.DF_NC], relay_counts=[1, 2, 3], snr_points_db=[0.0, 10.0],
        trials=2000, output_path=str(tmp_path / "s.csv"),
    )
    serial = sweep_bytes(spec, 1)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert sweep_bytes(spec, 8) == serial
    finally:
        sys.setswitchinterval(interval)


def test_resume_skips_completed_cells(tmp_path):
    spec = small_spec(tmp_path)
    run_experiment(spec)
    csv_first = Path(spec.output_path).read_bytes()
    journal = spec.output_path + ".journal"
    lines = Path(journal).read_text().splitlines()
    # drop the last completed cell and rerun; only that cell is redone
    Path(journal).write_text("\n".join(lines[:-1]) + "\n")
    os.remove(spec.output_path)
    run_experiment(spec)
    assert Path(spec.output_path).read_bytes() == csv_first


# -- outage groups ------------------------------------------------------------------


def fig4_spec(tmp_path, **kw):
    base = dict(
        figure="fig4",
        snr_points_db=[10.0, 15.0, 20.0],
        relay_counts=[1, 2, 5],
        trials=3000,
        seed=7,
        output_path=str(tmp_path / "fig4.csv"),
    )
    base.update(kw)
    return ExperimentSpec(**base)


# fig4_spec's rows at each group's first SNR point, as recorded at 0.5.0,
# whose group seed is the first word of the first cell's seed sequence
FIRST_SNR_ROWS = [
    "anc,2,1,10.0,,,,,0.9266666666666666,0.7768698398515702,3.3333333333333335,3.333333333333333,outage_exp_approx",
    "anc,2,2,10.0,,,,,0.8513333333333334,0.6035267480710044,3.3333333333333335,3.333333333333333,outage_exp_approx",
    "anc,2,5,10.0,,,,,0.664,0.2829705940672512,3.3333333333333335,3.333333333333333,outage_exp_approx",
    "df,2,1,10.0,,,,,0.448,0.4511883639059736,3.3333333333333335,3.333333333333333,",
    "df,2,2,10.0,,,,,0.20566666666666666,0.20357093972414927,3.3333333333333335,3.333333333333333,",
    "df,2,5,10.0,,,,,0.02,0.018697754515222004,3.3333333333333335,3.333333333333333,",
]


def assert_rows_match_a_per_cell_oracle(spec):
    """Run ``spec`` and check each row's Monte Carlo columns against its
    cell alone at its group's seed: ``estimate_ser`` for ser_mc/ser_ci, and
    the sampled selection SNR for outage_mc.  Returns the rows."""
    spec = validate_spec(spec).spec
    fig = experiment._FIGURES[spec.figure]
    rows = run_experiment(spec).rows
    assert len(rows) == len(experiment._cells(spec))
    for row in rows:
        cols = row.split(",")
        # a group is the cells of one (scheme, M, N), and its seed is the
        # first word of its first cell's seed sequence
        first = next(i for i, other in enumerate(rows) if other.split(",")[:3] == cols[:3])
        seed = int(np.random.SeedSequence(spec.seed, spawn_key=(first,)).generate_state(1)[0])
        config = SystemConfig(
            int(cols[2]), float(cols[10]), float(cols[11]), mod_order=int(cols[1]), scheme=Scheme(cols[0])
        )
        if fig.ser:
            est, _ = estimate_ser(config, spec.trials, seed)
            assert (float(cols[4]), float(cols[5])) == (est.ser, est.ci_halfwidth), row
        if fig.outage:
            assert float(cols[8]) == np.mean(sample_best_snr(config, spec.trials, seed) < spec.gamma_th), row
        assert (cols[4] != "", cols[8] != "") == (fig.ser, fig.outage), row
    return rows


def test_outage_group_rows_match_a_per_cell_oracle(tmp_path):
    spec = fig4_spec(tmp_path)
    rows = assert_rows_match_a_per_cell_oracle(spec)
    assert [row for row in rows if row.split(",")[3] == repr(spec.snr_points_db[0])] == FIRST_SNR_ROWS


@pytest.mark.parametrize(
    "spec",
    [
        ExperimentSpec(figure="fig3", snr_points_db=[0.0, 10.0, 20.0], relay_counts=[1, 2]),
        ExperimentSpec(figure="fig5", snr_points_db=[5.0, 15.0], relay_counts=[1, 2]),
        ExperimentSpec(
            figure="custom", snr_points_db=[0.0, 10.0, 20.0], relay_counts=[1, 2], schemes=[Scheme.ANC, Scheme.DF_NC]
        ),
    ],
    ids=lambda spec: spec.figure,
)
def test_group_rows_match_a_per_cell_oracle(tmp_path, spec):
    # the SER cells of a group stop at different trials: 0 dB in the first
    # batch, 20 dB at the cap, past a partial last batch
    spec = dataclasses.replace(spec, trials=2 * montecarlo.BATCH_SIZE + 7, seed=7, output_path=str(tmp_path / "g.csv"))
    rows = assert_rows_match_a_per_cell_oracle(spec)
    if spec.figure == "custom":
        assert rows == CUSTOM_ROWS


# the custom sweep above, as recorded at 0.8.0: its SER and outage columns
# together, so the 0 dB cells count outage past their stop by selection alone
CUSTOM_ROWS = [
    "anc,2,1,0.0,0.23673469387755103,0.020104115348612377,"
    "0.24928105650299706,0.6529038804869673,1.0,0.9999996940976795,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap;outage_exp_approx",
    "anc,2,1,10.0,0.04029806843808217,0.003819830650822703,"
    "0.039622127546869425,0.24197716742394676,0.9196948893974065,0.7768698398515702,"
    "3.3333333333333335,3.333333333333333,ser_model_gap;outage_exp_approx",
    "anc,2,1,20.0,0.0013119755911517926,0.00039619253432623405,"
    "0.0008974916852551214,0.035443926210792176,0.1689397406559878,0.1392920235749422,"
    "33.333333333333336,33.33333333333333,ser_model_gap;outage_exp_approx",
    "anc,2,2,0.0,0.2336655592469546,0.019503692983665007,"
    "0.22468153429527418,0.6529038804869673,1.0,0.9999993881954526,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap;outage_exp_approx",
    "anc,2,2,10.0,0.03216048399936316,0.003088030354440579,"
    "0.02276774020851076,0.24197716742394676,0.8494279176201373,0.6035267480710044,"
    "3.3333333333333335,3.333333333333333,ser_model_gap;outage_exp_approx",
    "anc,2,2,20.0,0.00039664378337147215,0.00022336887326094765,"
    "0.00011572566387753685,0.035443926210792176,0.030755148741418763,0.01940226783160225,"
    "33.333333333333336,33.33333333333333,ser_model_gap;outage_exp_approx",
    "df,2,1,0.0,0.30234315948601664,0.024718720573603536,"
    "0.1889822365046136,0.5610177634953863,0.9976506483600305,0.9975212478233336,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap;relay_mai",
    "df,2,1,10.0,0.08071920428462127,0.007387725232057509,"
    "0.018226688214018204,0.16618628282543796,0.45244851258581237,0.4511883639059736,"
    "3.3333333333333335,3.333333333333333,ser_model_gap;relay_mai",
    "df,2,1,20.0,0.008848207475209764,0.0010154250924786063,"
    "0.0003136530143389381,0.02169242973922131,0.06007627765064836,0.0582354664157513,"
    "33.333333333333336,33.33333333333333,ser_model_gap;relay_mai",
    "df,2,2,0.0,0.2761394101876676,0.02266400906566485,"
    "0.14793909658724666,0.5610177634953863,0.9946605644546148,0.9950486398590206,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap;relay_mai",
    "df,2,2,10.0,0.06326781326781326,0.005916618867212351,"
    "0.005853966609280212,0.16618628282543796,0.20747520976353928,0.20357093972414927,"
    "3.3333333333333335,3.333333333333333,ser_model_gap;relay_mai",
    "df,2,2,20.0,0.0038749046529366897,0.0006750804109862611,"
    "1.4848467082572873e-05,0.02169242973922131,0.0036003051106025933,0.003391369548660098,"
    "33.333333333333336,33.33333333333333,ser_model_gap;relay_mai",
]


# a fig3 sweep at 0 and 10 dB, N = 1 and 2, 3000 trials, seed 7, as
# recorded at 0.8.0: the 0 dB cells stop at their 400th error
FIG3_ROWS = [
    "anc,2,1,0.0,0.2372479240806643,0.020291131477909494,0.24928105650299706,0.6529038804869673,,,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap",
    "anc,2,1,10.0,0.037,0.006776226795493468,0.039622127546869425,0.24197716742394676,,,"
    "3.3333333333333335,3.333333333333333,ser_model_gap",
    "anc,2,2,0.0,0.22099447513812154,0.019103689666186092,0.22468153429527418,0.6529038804869673,,,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap",
    "anc,2,2,10.0,0.026333333333333334,0.005758165495900792,0.02276774020851076,0.24197716742394676,,,"
    "3.3333333333333335,3.333333333333333,ser_model_gap",
    "df,2,1,0.0,0.2840909090909091,0.023531418782139324,0.1889822365046136,0.5610177634953863,,,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap;relay_mai",
    "df,2,1,10.0,0.072,0.009259975456140367,0.018226688214018204,0.16618628282543796,,,"
    "3.3333333333333335,3.333333333333333,ser_model_gap;relay_mai",
    "df,2,2,0.0,0.2803083391730904,0.02328000183591466,0.14793909658724666,0.5610177634953863,,,"
    "0.3333333333333333,0.33333333333333337,ser_model_gap;relay_mai",
    "df,2,2,10.0,0.052,0.007960550793493002,0.005853966609280212,0.16618628282543796,,,"
    "3.3333333333333335,3.333333333333333,ser_model_gap;relay_mai",
]


@pytest.mark.parametrize("figure", ["fig3", "fig4"])
def test_sweeps_run_the_tested_kernel(tmp_path, monkeypatch, figure):
    # every row comes from run_batch, the kernel that the brute-force and
    # noiseless tests check, or from its selection-bottleneck SNR: each
    # config's calls take consecutive rows of its group's draws from trial
    # 0, detecting (with stage 2, drawn chunk by chunk after stage 1) on SER
    # figures up to the slice that holds its stop, and, on outage figures,
    # counting outage from the bottleneck alone (no kernel call, no relay
    # index) over every trial, once per batch; a DF-NC group selects its
    # relays once per batch for all of its configs
    calls, groups, df_selections = {}, [], [0]
    kernel, select, df_select, estimator = (
        montecarlo.run_batch, montecarlo._select, montecarlo._df_select, experiment.estimate_group
    )

    def counted(config, gb, stage2=None):
        calls.setdefault(config, []).append((stage2[0].copy(), gb.g_s1_r.copy()))
        return kernel(config, gb, stage2)

    def selected(config, gb, index=True):
        if not index:
            calls.setdefault(config, []).append((None, gb.g_s1_r.copy()))
        return select(config, gb, index)

    def df_selected(g_s1_r, g_s2_r):
        df_selections[0] += 1
        return df_select(g_s1_r, g_s2_r)

    def recorded(configs, trials, seed, **kw):
        estimates = estimator(configs, trials, seed, **kw)
        groups.append((configs, trials, seed, estimates))
        return estimates

    monkeypatch.setattr(montecarlo, "run_batch", counted)
    monkeypatch.setattr(montecarlo, "_select", selected)
    monkeypatch.setattr(montecarlo, "_df_select", df_selected)
    monkeypatch.setattr(experiment, "estimate_group", recorded)
    if figure == "fig3":
        spec = ExperimentSpec(
            figure="fig3", snr_points_db=[0.0, 10.0], relay_counts=[1, 2], trials=3000, seed=7,
            output_path=str(tmp_path / "fig3.csv"),
        )
        rows = run_experiment(validate_spec(spec).spec).rows
        assert rows == FIG3_ROWS
    else:
        spec = validate_spec(fig4_spec(tmp_path)).spec
        rows = run_experiment(spec).rows
        assert [row for row in rows if row.split(",")[3] == repr(spec.snr_points_db[0])] == FIRST_SNR_ROWS
    assert sum(len(configs) for configs, *_ in groups) == len(rows) == len(calls)
    df_batches = sum(math.ceil(trials / montecarlo.BATCH_SIZE) for configs, trials, *_ in groups
                     if configs[0].scheme is Scheme.DF_NC)
    assert df_selections[0] == df_batches > 0
    for configs, trials, seed, estimates in groups:
        gains, phases = [], []
        for rng, size in montecarlo._batches(seed, trials):
            gains.append(montecarlo.sample_gains(configs[0], rng, size).g_s1_r)
            phases.append(chunked_stage2(configs[0], size, rng)[0])
        gains, phases = np.concatenate(gains), np.concatenate(phases)
        for config, (ser, _) in zip(configs, estimates):
            detected = {phase is not None for phase, _ in calls[config]}
            assert detected == {figure == "fig3"}
            if ser is None:
                assert len(calls[config]) == math.ceil(trials / montecarlo.BATCH_SIZE)
            blocks = [block for _, block in calls[config]]
            covered = sum(len(block) for block in blocks)
            assert np.array_equal(np.concatenate(blocks), gains[:covered])
            if ser is None:
                assert covered == trials
            else:
                assert np.array_equal(np.concatenate([phase for phase, _ in calls[config]]), phases[:covered])
                assert covered - len(blocks[-1]) < ser[0].trials <= covered


def test_meta_records_the_batch_size_and_the_ser_stop(tmp_path):
    spec = small_spec(tmp_path)
    run_experiment(spec)
    meta = Path(spec.output_path + ".meta").read_text().splitlines()
    assert f"batch_size={montecarlo.BATCH_SIZE}" in meta
    assert meta[meta.index(f"batch_size={montecarlo.BATCH_SIZE}") + 1] == "stage2_chunks=2048,4096,8192,16384"
    assert f"ser_stop=first trial with {montecarlo.MAX_ERRORS} errors on both sources" in meta


def test_outage_nonincreasing_in_snr_within_each_group(tmp_path):
    # for fixed gains every relay's bottleneck SNR rises with the budget, so
    # a group's shared draws give a nonincreasing outage curve
    out = str(tmp_path / "fig4.csv")
    argv = ["--figure", "fig4", "--snr", "0:20:5", "--relays", "1,2,5,10", "--trials", "4000", "--out", out]
    assert main(argv) == 0
    curves = {}
    for row in Path(out).read_text(encoding="utf-8").splitlines()[1:]:
        cols = row.split(",")
        curves.setdefault((cols[0], cols[2]), []).append(float(cols[8]))
    assert len(curves) == 8
    for key, curve in curves.items():
        assert len(curve) == 5 and all(b <= a for a, b in zip(curve, curve[1:])), key


def test_group_resume_recomputes_only_the_missing_cells(tmp_path, monkeypatch):
    spec = fig4_spec(tmp_path, relay_counts=[1, 2])
    run_experiment(spec)
    csv_first = Path(spec.output_path).read_bytes()
    journal = Path(spec.output_path + ".journal")
    header, *lines = journal.read_text(encoding="utf-8").splitlines()
    # drop the middle row of the first group and tear the last line, which
    # belongs to another group
    del lines[1]
    journal.write_text("\n".join([header, *lines[:-1], lines[-1][:-5]]), encoding="utf-8")
    os.remove(spec.output_path)
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec, workers=2)
    assert Path(spec.output_path).read_bytes() == csv_first
    assert sorted((c.scheme.value, c.num_relays, c.snr_db) for _, c, _ in calls) == [
        ("anc", 1, 15.0),
        ("df", 2, 20.0),
    ]


def test_pool_capped_at_pending_groups(tmp_path, monkeypatch):
    # this stand-in records the pool's size and runs each job in this
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
    # three groups, one per relay count, of two SNR points each
    spec = small_spec(tmp_path, figure="fig3", relay_counts=[1, 2, 3])
    run_experiment(spec, workers=5000)
    assert opened == [len(spec.relay_counts)]
    # a resume with one cell missing has one pending group
    journal = Path(spec.output_path + ".journal")
    journal.write_text("".join(journal.read_text().splitlines(keepends=True)[:-1]))
    run_experiment(spec, workers=5000)
    assert opened[1:] == [1]
    # a sweep with nothing left to compute still opens a pool of one
    run_experiment(spec, workers=5000)
    assert opened[2:] == [1]


def test_groups_run_on_separate_threads(tmp_path, monkeypatch):
    # two groups, N=1 and N=2: their first cells can only meet at the
    # barrier if the groups run on two threads
    spec = small_spec(tmp_path, schemes=[Scheme.ANC], relay_counts=[1, 2], snr_points_db=[0.0, 5.0])
    barrier = threading.Barrier(2, timeout=30)
    compute = experiment._compute_cell

    def meet(spec, cell, *args):
        if cell.snr_db == 0.0:
            barrier.wait()
        return compute(spec, cell, *args)

    monkeypatch.setattr(experiment, "_compute_cell", meet)
    run_experiment(spec, workers=2)
    assert len(Path(spec.output_path).read_text(encoding="utf-8").splitlines()) == 1 + 4


def count_computed_cells(monkeypatch):
    calls = []
    compute = experiment._compute_cell

    def counted(*args):
        calls.append(args)
        return compute(*args)

    monkeypatch.setattr(experiment, "_compute_cell", counted)
    return calls


def cell_id(cell):
    return cell.scheme.value, cell.num_relays, cell.snr_db


def keyed_cells(lines):
    """(scheme, num_relays, snr_db) of each journal line's cell key."""
    fields = [dict(kv.split("=") for kv in line.split("\t")[0].split(";")) for line in lines]
    return {(f["scheme"], int(f["n"]), float(f["snr"])) for f in fields}


def interrupt_and_resume(spec, workers, monkeypatch, failing, error, before=lambda cell: None):
    """Run ``spec`` with ``error`` raised at the cell whose ``cell_id`` is
    ``failing`` (``before(cell)`` runs ahead of every cell), check what the
    journal holds, then resume and check that the resume computes exactly
    the cells the journal lacks and writes a clean run's bytes.  Returns the
    journaled cells."""
    reference = dataclasses.replace(spec, output_path=spec.output_path + ".ref.csv")
    run_experiment(reference)
    cells = [cell_id(cell) for cell in experiment._cells(validate_spec(spec).spec)]
    compute = experiment._compute_cell

    def interrupted(spec, cell, *args):
        before(cell)
        if cell_id(cell) == failing:
            raise error
        return compute(spec, cell, *args)

    monkeypatch.setattr(experiment, "_compute_cell", interrupted)
    threads_before = threading.active_count()
    with pytest.raises(type(error)):
        run_experiment(spec, workers=workers)
    assert threading.active_count() == threads_before
    journal = Path(spec.output_path + ".journal").read_text(encoding="utf-8")
    header, *lines = journal.split("\n")
    assert header.startswith("#config=") and lines[-1] == ""
    for line in lines[:-1]:
        key, tab, row = line.partition("\t")
        assert tab and row.count(",") == CSV_HEADER.count(",")
    journaled = keyed_cells(lines[:-1])
    assert failing not in journaled
    # a group's rows are journaled together and groups in cell order, so
    # every cell of every group before the failing cell's is journaled by
    # the time its failure surfaces; these specs have one PSK order, so a
    # group is one (scheme, N)
    first = next(i for i, cell in enumerate(cells) if cell[:2] == failing[:2])
    assert set(cells[:first]) <= journaled
    monkeypatch.setattr(experiment, "_compute_cell", compute)
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec, workers=workers)
    assert sorted(cell_id(cell) for _, cell, _ in calls) == sorted(set(cells) - journaled)
    assert Path(spec.output_path).read_bytes() == Path(reference.output_path).read_bytes()
    return journaled


def test_interrupted_threaded_sweep_resumes_to_same_bytes(tmp_path, monkeypatch):
    # two groups, N=1 and N=2, on two threads
    spec = small_spec(tmp_path, relay_counts=[1, 2], snr_points_db=[0.0, 5.0, 10.0, 15.0, 20.0])
    interrupt_and_resume(spec, 2, monkeypatch, ("df", 1, 10.0), RuntimeError("simulated cell failure"))


def test_interrupted_fig4_sweep_at_one_worker_resumes_to_same_bytes(tmp_path, monkeypatch):
    spec = fig4_spec(tmp_path, relay_counts=[1, 2])
    interrupt_and_resume(spec, 1, monkeypatch, ("anc", 2, 15.0), RuntimeError("simulated cell failure"))


def test_ctrl_c_journals_the_cells_that_finish_during_the_wait(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, relay_counts=[1, 2], snr_points_db=[0.0, 10.0, 20.0])
    other_group_running = threading.Event()

    # the N=1 10 dB cell is interrupted once an N=2 cell runs on the other
    # thread; that cell finishes while the run waits, and is journaled
    def before(cell):
        if cell_id(cell) == ("df", 1, 10.0):
            assert other_group_running.wait(timeout=60)
        elif cell.num_relays == 2:
            other_group_running.set()

    journaled = interrupt_and_resume(spec, 2, monkeypatch, ("df", 1, 10.0), KeyboardInterrupt(), before)
    assert ("df", 2, 0.0) in journaled


def test_torn_journal_resumes_to_original_bytes(tmp_path, monkeypatch):
    spec = small_spec(tmp_path, schemes=[Scheme.ANC])
    run_experiment(spec)
    csv_first = Path(spec.output_path).read_bytes()
    journal = spec.output_path + ".journal"
    journal_first = Path(journal).read_bytes()
    # an interrupted write leaves the last row without its last five bytes;
    # its comma count still matches the schema
    Path(journal).write_bytes(journal_first[:-5])
    os.remove(spec.output_path)
    run_experiment(spec)
    assert Path(spec.output_path).read_bytes() == csv_first
    assert Path(journal).read_bytes() == journal_first
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec)
    assert calls == []
    assert Path(spec.output_path).read_bytes() == csv_first


def test_failed_replace_keeps_previous_csv(tmp_path, monkeypatch):
    spec = small_spec(tmp_path)
    run_experiment(spec)
    csv_first = Path(spec.output_path).read_bytes()
    listing = sorted(os.listdir(tmp_path))

    def failing_replace(src, dst):
        raise OSError("simulated failure")

    monkeypatch.setattr(experiment.os, "replace", failing_replace)
    with pytest.raises(OSError, match="simulated"):
        run_experiment(spec)
    assert Path(spec.output_path).read_bytes() == csv_first
    assert sorted(os.listdir(tmp_path)) == listing


def test_batch_size_change_invalidates_journal(tmp_path, monkeypatch):
    spec = small_spec(tmp_path)
    run_experiment(spec)
    journal = spec.output_path + ".journal"
    header = Path(journal).read_text().splitlines()[0]
    monkeypatch.setattr(montecarlo, "BATCH_SIZE", montecarlo.BATCH_SIZE // 2)
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec)
    assert Path(journal).read_text().splitlines()[0] != header
    assert len(calls) == len(spec.snr_points_db)


def test_stage2_chunk_change_invalidates_journal(tmp_path, monkeypatch):
    # the chunk ends fix where each stage-2 draw sits in a batch's stream
    spec = small_spec(tmp_path)
    run_experiment(spec)
    journal = spec.output_path + ".journal"
    header = Path(journal).read_text().splitlines()[0]
    monkeypatch.setattr(montecarlo, "_STAGE2_CHUNKS", (1024, 16384))
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec)
    assert Path(journal).read_text().splitlines()[0] != header
    assert len(calls) == len(spec.snr_points_db)


def test_journal_of_previous_version_not_resumed(tmp_path, monkeypatch):
    # 0.4.0 draws each outage group's fading gains once for all its SNR
    # points: a 0.3.0 journal holds rows of the old random stream and must be
    # recomputed, not resumed
    assert marcsim.__version__ != "0.3.0"
    spec = small_spec(tmp_path)
    monkeypatch.setattr(experiment, "__version__", "0.3.0")
    run_experiment(spec)
    journal = spec.output_path + ".journal"
    header = Path(journal).read_text().splitlines()[0]
    monkeypatch.setattr(experiment, "__version__", marcsim.__version__)
    calls = count_computed_cells(monkeypatch)
    run_experiment(spec)
    assert Path(journal).read_text().splitlines()[0] != header
    assert len(calls) == len(spec.snr_points_db)


def test_package_version_matches_pyproject():
    # the journal's config hash reads __version__, so a release that bumps
    # only pyproject.toml would resume journals of the old random stream
    pyproject = tomllib.loads((Path(marcsim.__file__).parents[2] / "pyproject.toml").read_text())
    assert marcsim.__version__ == pyproject["project"]["version"]


def test_stale_journal_discarded(tmp_path):
    spec = small_spec(tmp_path)
    journal = spec.output_path + ".journal"
    os.makedirs(tmp_path, exist_ok=True)
    Path(journal).write_text("#config=deadbeef\nbogus\tline\n")
    run_experiment(spec)
    assert "#config=deadbeef" not in Path(journal).read_text()


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
        (["--relays", "abc"], "relay_counts"),
        (["--trials", "abc"], "trials"),
        (["--trials", "1.5"], "trials"),
        (["--seed", "-"], "seed"),
        (["--gamma-th", "x"], "gamma_th"),
        (["--workers", "abc"], "workers"),
        (["--workers", "0"], "workers"),
        (["--snr=4000"], "snr_points_db"),
        (["--snr=-4000"], "snr_points_db"),
        # the ptotal-* cases set the total power budget p_total = 10**(snr/10)
        # through the SNR axis: 1e-320, 1e-307, 2.6e-307, 1e-305 and 1e308
        (["--snr=-3200"], "snr_points_db"),
        (["--relays", "65"], "relay_counts"),
        (["--scheme", "anc,df", "--relays", "1,3", "--snr=-3070"], "snr_points_db"),
        # N*eta is finite here, but the series' coefficient C(3,2)*2 = 6 times eta is not
        (["--scheme", "anc,df", "--relays", "1,3", "--snr=-3065.85"], "snr_points_db"),
        (["--figure", "fig5", "--snr=-3050"], "snr_points_db"),
        # finite rates, but gamma_s*g*gamma_r*g overflows in the Monte Carlo's ANC SNR
        (["--scheme", "anc,df", "--relays", "1,3", "--snr", "2000"], "snr_points_db"),
        (["--scheme", "anc,df", "--relays", "1", "--snr", "3080"], "snr_points_db"),
        (["--relays", "1,1"], "relay_counts"),
        (["--mod", "2,2"], "mod_orders"),
        (["--scheme", "df,df"], "schemes"),
        # a bad command line exits 1 like a bad spec, not with argparse's 2
        (["--bogus", "1"], "--bogus"),
        (["--snr"], "--snr"),
        (["--ptotal", "5"], "--ptotal"),
    ],
    ids=[
        "relays-0", "gamma_th-nan", "snr-nan",
        "relays-abc", "trials-abc", "trials-1.5", "seed-dash", "gamma_th-x",
        "workers-abc", "workers-0", "snr-overflow", "snr-underflow", "ptotal-subnormal",
        "relays-65-ser", "ptotal-series-overflow", "ptotal-series-coefficient", "ptotal-allocator-edge",
        "snr-mc-overflow", "ptotal-mc-overflow", "relays-repeat", "mod-repeat", "scheme-repeat",
        "unknown-flag", "snr-no-value", "ptotal-unknown",
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


def test_outage_figure_rejects_relays_past_the_stage1_budget(tmp_path, capsys):
    # one batch of a million relays' gains and ANC selection temporaries is
    # 786 GB: the spec exits 1 before anything is drawn or written
    assert main(["--figure", "fig4", "--relays", "1000000", "--out", str(tmp_path / "x.csv")]) == 1
    err = capsys.readouterr().err
    assert "relay_counts" in err and "786432000000 bytes" in err
    assert os.listdir(tmp_path) == []
    # at default trials ANC's 48 B per gain element allows 1,365 relays, and
    # DF-NC's 24 B twice that; every count up to 64 passes
    for schemes, fits in (([Scheme.ANC, Scheme.DF_NC], 1365), ([Scheme.DF_NC], 2730)):
        for n, ok in ((64, True), (fits, True), (fits + 1, False)):
            assert validate_spec(ExperimentSpec(figure="fig4", relay_counts=[n], schemes=schemes)).ok == ok


def test_ser_figures_reject_psk_orders_past_the_detection_budget(tmp_path, capsys):
    # past M = 2^15 a detection call covers one row, 40 B per PSK point: at
    # 2^25 points that is 1.25 GiB, so the spec exits 1 before anything runs
    out = tmp_path / "x.csv"
    assert main(["--figure", "custom", "--mod", "33554432", "--trials", "1", "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "mod_orders" in err and f"{montecarlo._DETECT_BYTES << 25} bytes" in err
    assert os.listdir(tmp_path) == []
    # the largest power of two within the 1 GiB budget passes (2^24 at 40 B
    # per point), and no more; these specs are validated, never run
    largest = 1 << ((1 << 30) // montecarlo._DETECT_BYTES).bit_length() - 1
    for m, ok in ((2, True), (largest, True), (2 * largest, False)):
        assert validate_spec(ExperimentSpec(figure="fig2", mod_orders=[m])).ok == ok
    # an outage-only figure detects nothing, so M costs it no memory
    assert validate_spec(ExperimentSpec(figure="fig4", mod_orders=[2 * largest])).ok


def test_ser_figures_reject_budgets_past_the_single_precision_range(tmp_path, capsys, monkeypatch):
    # detection's float32 metrics stay finite up to a 1e30 W budget: 300 dB
    # validates on every SER figure and the next float does not, exiting 1
    # before any kernel runs; fig4 detects nothing and keeps its range
    edge = 10.0 * math.log10(montecarlo._MAX_POWER)
    past = math.nextafter(edge, math.inf)
    assert edge == 300.0
    for figure in ("fig2", "fig3", "fig5", "custom"):
        assert validate_spec(ExperimentSpec(figure=figure, snr_points_db=[edge])).ok
        errors = validate_spec(ExperimentSpec(figure=figure, snr_points_db=[edge, past])).errors
        assert [e.split(":")[0] for e in errors] == ["snr_points_db"]
    assert validate_spec(ExperimentSpec(figure="fig4", snr_points_db=[past, 1000.0])).ok

    def kernel(*args, **kwargs):
        raise AssertionError("a rejected spec ran the kernel")

    monkeypatch.setattr(montecarlo, "run_batch", kernel)
    out = tmp_path / "x.csv"
    assert main(["--figure", "fig2", "--snr", repr(past), "--trials", "10", "--out", str(out)]) == 1
    assert "snr_points_db" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_largest_accepted_budget_detects_without_overflow(scheme):
    # at the 1e30 W edge, at the equal split and at the allocator's two
    # extreme splits, 8-PSK detection neither overflows nor errs
    p_total = montecarlo._MAX_POWER
    splits = [PowerSplit.equal(p_total), *allocation_edges(p_total)]
    configs = [SystemConfig(1, sp.p_source, sp.p_relay, mod_order=8, scheme=scheme) for sp in splits]
    with np.errstate(over="raise", invalid="raise"):
        estimates = estimate_group(configs, 4000, seed=5)
    assert [(e1.errors, e2.errors, e1.trials) for (e1, e2), _ in estimates] == [(0, 0, 4000)] * 3


def csv_rows(path):
    return [r.split(",") for r in Path(path).read_text().splitlines()[1:]]


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
    # the error lists the names --help shows, and each figure has only that name
    assert "('fig2', 'fig3', 'fig4', 'fig5', 'custom')" in capsys.readouterr().err
    assert main(["--figure", "fig2_ser_vs_snr_mpsk", "--out", str(tmp_path / "x.csv")]) == 1


def test_cli_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    assert "--snr" in capsys.readouterr().out


def test_cli_config_file_rejects_p_total(tmp_path, capsys):
    # the SNR axis is the only statement of the budget; a leftover key must not pass
    cfg = tmp_path / "spec.cfg"
    cfg.write_text("figure=custom\np_total=5\n")
    code = main(["--config", str(cfg), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "p_total" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["spec.cfg"]


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
    rows = Path(out).read_text().splitlines()[1:]
    assert len(rows) == 1 and rows[0].split(",")[3] == "5.0"


def test_cli_snr_range_syntax(tmp_path):
    out = str(tmp_path / "range.csv")
    code = main(
        ["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "0:10:5",
         "--trials", "1000", "--out", out]
    )
    assert code == 0
    snrs = [r.split(",")[3] for r in Path(out).read_text().splitlines()[1:]]
    assert snrs == ["0.0", "5.0", "10.0"]


def test_cli_rejects_workers_past_the_cap(tmp_path, capsys, monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("a rejected worker count must start no thread")

    monkeypatch.setattr(experiment.concurrent.futures, "ThreadPoolExecutor", no_pool)
    base = ["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "10", "--trials", "1000"]
    code = main([*base, "--workers", str(cli._MAX_WORKERS + 1), "--out", str(tmp_path / "x.csv")])
    assert code == 1
    assert "workers" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


def test_cli_refuses_a_negative_analytic_ser(tmp_path, capsys):
    # DF N=25 at 25 dB: the SER quadrature cancels to -4.22e-13
    out = tmp_path / "neg.csv"
    code = main(["--figure", "custom", "--scheme", "df", "--relays", "25", "--snr", "25",
                 "--trials", "1000", "--out", str(out)])
    assert code == 2
    assert "lost its sign" in capsys.readouterr().err
    assert not out.exists()


def test_cli_runtime_failure_exit_code(tmp_path):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory")
    code = main(
        ["--figure", "custom", "--scheme", "df", "--relays", "1", "--snr", "10",
         "--trials", "1000", "--out", str(blocker / "out.csv")]
    )
    assert code == 2
