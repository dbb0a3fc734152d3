import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import kstest

from oracles import (
    brute_force_decide,
    brute_force_pair,
    brute_force_run_batch,
    chunked_stage2,
    complex_gaussian,
    config_at_snr_db,
    direct_only_pair_ml_ser,
    draw_stage2,
    draw_symbols,
    exact_best_bottleneck_cdf,
    full_phase_gains,
    full_phase_run_batch,
    gain_batch,
    max_min_selection,
    rayleigh_bpsk_ser,
    single_link_ser,
)
from marcsim import montecarlo
from marcsim.analytic import BestRelayDistribution, best_cdf, bottleneck_rate
from marcsim.model import Scheme, SystemConfig
from marcsim.montecarlo import (
    BATCH_SIZE,
    MAX_ERRORS,
    SerEstimate,
    estimate_group,
    estimate_outage,
    estimate_ser,
    modulate,
    relay_normalization,
    run_batch,
    sample_best_snr,
    sample_gains,
    _batches,
    _complex_gaussian,
    _decide,
    _joint_ml,
    _select,
    _selected_links,
)


def anc_config(**kw):
    base = dict(num_relays=2, p_source=1.0, p_relay=1.0, scheme=Scheme.ANC)
    base.update(kw)
    return SystemConfig(**base)


def df_config(**kw):
    kw.setdefault("scheme", Scheme.DF_NC)
    return anc_config(**kw)


# -- modulation -----------------------------------------------------------------


def test_bpsk_points():
    assert modulate(0, 2) == pytest.approx(1.0)
    assert modulate(1, 2) == pytest.approx(-1.0, abs=1e-12)


def test_qpsk_quarter_turn():
    assert modulate(1, 4) == pytest.approx(1j, abs=1e-12)


@given(m_exp=st.integers(1, 6), frac=st.floats(0, 1, exclude_max=True))
def test_unit_energy(m_exp, frac):
    m = 2**m_exp
    idx = int(frac * m)
    assert abs(modulate(idx, m)) == pytest.approx(1.0)


def test_index_out_of_range():
    with pytest.raises(ValueError):
        modulate(2, 2)
    with pytest.raises(ValueError):
        modulate(-1, 4)


# -- protocol batches ----------------------------------------------------------------


def test_trial_deterministic():
    cfg = anc_config(num_relays=3)
    gains = sample_gains(cfg, np.random.default_rng(5), 64)
    t1 = run_batch(cfg, gains, draw_stage2(cfg, 64, np.random.default_rng(9)))
    t2 = run_batch(cfg, gains, draw_stage2(cfg, 64, np.random.default_rng(9)))
    for a, b in zip(t1, t2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("length", [1, 2, montecarlo._SHORT_AXIS, montecarlo._SHORT_AXIS + 1, 64])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("values", ["random", "integer"])
def test_first_extreme_matches_numpy_bit_for_bit(values, dtype, length):
    # the short-axis loop and its fallback past _SHORT_AXIS against numpy's
    # arg-reduction plus a gather, both extremes, along the last axis (the
    # relays of a (rows, N) batch) and the first (the M hypotheses of an
    # (M, rows) metric, with a picked integer array); integer values force
    # ties, which go to the lowest index
    rng = np.random.default_rng(length)
    a = rng.integers(-3, 4, (500, length)) if values == "integer" else rng.standard_normal((500, length))
    a = a.astype(dtype)
    if values == "integer" and length > 1:
        top = a == a.max(axis=1, keepdims=True)
        assert (top.sum(axis=1) > 1).mean() > 0.1
    pick = rng.integers(0, 1 << 40, a.shape)
    for lowest, arg in ((False, np.argmax), (True, np.argmin)):
        for x, p, axis in ((a, pick, -1), (a.T, pick.T, 0)):
            want = np.expand_dims(arg(x, axis=axis), axis)
            values_at, picks_at = (np.take_along_axis(y, want, axis).squeeze(axis) for y in (x, p))
            idx, got = montecarlo._first_extreme(x, axis, lowest=lowest)
            assert idx.tobytes() == want.squeeze(axis).tobytes() and got.tobytes() == values_at.tobytes()
            none, got = montecarlo._first_extreme(x, axis, lowest=lowest, index=False)
            assert none is None and got.tobytes() == values_at.tobytes()
            idx, got = montecarlo._first_extreme(x, axis, lowest=lowest, pick=p)
            assert idx.tobytes() == want.squeeze(axis).tobytes() and got.tobytes() == picks_at.tobytes()


@pytest.mark.parametrize("length", [2, montecarlo._SHORT_AXIS, montecarlo._SHORT_AXIS + 1])
def test_first_extreme_ties_go_to_the_lowest_index(length):
    a = np.zeros((3, length))
    a[1, 1:] = 1.0  # the first of several maxima
    a[2, 0] = -1.0  # every later entry ties for the maximum
    idx, best = montecarlo._first_extreme(a)
    assert idx.tolist() == [0, 1, 1] and best.tolist() == [0.0, 1.0, 0.0]
    idx, low = montecarlo._first_extreme(a, lowest=True)
    assert idx.tolist() == [0, 0, 0] and low.tolist() == [0.0, 0.0, -1.0]


@pytest.mark.parametrize("shape, axis", [((4, 0), -1), ((0, 4), 0)])
def test_first_extreme_rejects_an_empty_axis(shape, axis):
    # as np.argmax and np.argmin do
    for index in (True, False):
        with pytest.raises(ValueError):
            montecarlo._first_extreme(np.empty(shape), axis, index=index)


@pytest.mark.parametrize("gains", ["exponential", "integer"])
@pytest.mark.parametrize("num_relays", [1, 2, 5, 10, 64])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_selection_matches_the_max_min_oracle_bit_for_bit(scheme, num_relays, gains):
    # the one selection's bottleneck per scheme (DF-NC's one argmax per
    # batch, ANC's anc_snr of the smaller source->relay gain) against the
    # argmax of the smaller of both sources' per-relay SNRs, at budgets from
    # 1e-3 to 1e6 W at equal and skewed splits; integer gains force ties
    # between relays, which both break toward the lowest index
    rng = np.random.default_rng(num_relays)
    shape = (2048, num_relays)
    if gains == "integer":
        g1, g2, g_rd = (rng.integers(0, 4, shape).astype(float) for _ in range(3))
        low = np.minimum(g1, g2)
        ties = (low == low.max(axis=1, keepdims=True)).sum(axis=1) > 1
        assert num_relays == 1 or ties.mean() > 0.1
    else:
        g1, g2, g_rd = (rng.standard_exponential(shape) for _ in range(3))
    cfg = anc_config(scheme=scheme, num_relays=num_relays)
    gb = gain_batch(cfg, g1, g2, g_rd)
    for p_total in np.logspace(-3, 6, 10):
        for relay_share in (1.0 / 3.0, 0.02, 0.98):  # the equal split, then skewed ones
            p_relay = relay_share * p_total
            cfg = anc_config(scheme=scheme, num_relays=num_relays, p_source=(p_total - p_relay) / 2, p_relay=p_relay)
            want_sel, want_best = max_min_selection(cfg, gb)
            sel, best = _select(cfg, gb)
            assert sel.tobytes() == want_sel.tobytes() and best.tobytes() == want_best.tobytes()


@pytest.mark.parametrize("gains", ["exponential", "integer"])
@pytest.mark.parametrize("num_relays", [1, 2, 5, 10, 64])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_outage_count_matches_run_batch_bit_for_bit(monkeypatch, scheme, num_relays, gains):
    # outage and sample_best_snr read the best bottleneck SNR from _select
    # without the relay index; it is, bit for bit, the oracle's bottleneck of
    # the relay that run_batch detects on, so each outage count is that
    # relay's at thresholds on, between and around the SNRs; same gains,
    # budgets and splits as the max-min oracle test above
    rng = np.random.default_rng(100 + num_relays)
    shape = (2048, num_relays)
    if gains == "integer":
        g1, g2, g_rd = (rng.integers(0, 4, shape).astype(float) for _ in range(3))
    else:
        g1, g2, g_rd = (rng.standard_exponential(shape) for _ in range(3))
    cfg = anc_config(scheme=scheme, num_relays=num_relays)
    gb = gain_batch(cfg, g1, g2, g_rd)
    stage2 = draw_stage2(cfg, shape[0], rng)
    detected = []
    links = montecarlo._selected_links

    def spy(gb, sel, stage2):
        detected.append(sel)
        return links(gb, sel, stage2)

    monkeypatch.setattr(montecarlo, "_selected_links", spy)
    rows = np.arange(shape[0])
    for p_total in np.logspace(-3, 6, 10):
        for relay_share in (1.0 / 3.0, 0.02, 0.98):
            p_relay = relay_share * p_total
            cfg = anc_config(scheme=scheme, num_relays=num_relays, p_source=(p_total - p_relay) / 2, p_relay=p_relay)
            run_batch(cfg, gb, stage2)
            sel = detected.pop()
            picked = gain_batch(cfg, *(g[rows, sel][:, None] for g in (g1, g2, g_rd)))
            want = max_min_selection(cfg, picked)[1]
            none, best = _select(cfg, gb, index=False)
            assert none is None and best.tobytes() == want.tobytes()
            for gamma_th in (0.0, *np.quantile(want, [0.1, 0.5, 0.9]), want[0], np.inf):
                assert np.count_nonzero(best < gamma_th) == np.count_nonzero(want < gamma_th)


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_selection_is_shared_across_a_group(monkeypatch, scheme):
    # DF-NC's selection reads no power: one selection per batch serves every
    # config of its group.  An ANC config's bottleneck is one anc_snr, over
    # the smaller of the two source->relay gains, per kernel call and per
    # batch's outage count, which calls no kernel
    counts = {}

    def spy(name):
        real = getattr(montecarlo, name)

        def counted(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(montecarlo, name, counted)

    for name in ("_df_select", "anc_snr", "run_batch"):
        spy(name)

    def run(configs, trials, **kw):
        counts.update(_df_select=0, anc_snr=0, run_batch=0)
        return estimate_group(configs, trials, seed=5, **kw), dict(counts)

    # a fig4 group (outage only) at its default SNR axis, over three batches
    fig4 = [config_at_snr_db(anc_config(scheme=scheme, num_relays=5), 2.5 * k) for k in range(11)]
    _, got = run(fig4, 2 * BATCH_SIZE + 5, ser=False, gamma_th=1.0)
    assert got["run_batch"] == 0
    # a SER group whose configs all stop early, in the first of three
    # batches, without and with outage
    low_snr = [config_at_snr_db(anc_config(scheme=scheme), snr) for snr in (0.0, 2.5, 5.0)]
    estimates, got_ser = run(low_snr, 3 * BATCH_SIZE)
    assert all(pair[0].trials < BATCH_SIZE for pair, _ in estimates)
    assert got_ser["run_batch"] > len(low_snr)  # some config detects in several slices
    _, got_both = run(low_snr, 3 * BATCH_SIZE, gamma_th=1.0)
    assert got_both["run_batch"] == got_ser["run_batch"]
    for counted, batches, outage_counts in ((got, 3, 3 * len(fig4)), (got_ser, 1, 0), (got_both, 3, 3 * len(low_snr))):
        if scheme is Scheme.DF_NC:
            assert counted["_df_select"] == batches and counted["anc_snr"] == 0
        else:
            assert counted["anc_snr"] == counted["run_batch"] + outage_counts and counted["_df_select"] == 0


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_noiseless_detection_is_exact(scheme):
    cfg = anc_config(scheme=scheme, p_source=1e30, p_relay=1e30, num_relays=2)
    rng = np.random.default_rng(77)
    gains = sample_gains(cfg, rng, 50)
    e1, e2 = run_batch(cfg, gains, draw_stage2(cfg, 50, rng))
    assert not e1.any() and not e2.any()
    assert np.all(_select(cfg, gains)[0] < cfg.num_relays)


@pytest.mark.parametrize("snr_db", [0.0, 30.0])
@pytest.mark.parametrize("num_relays", [1, 3])
@pytest.mark.parametrize("mod_order", [2, 4, 8, 16])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_joint_ml_matches_brute_force(scheme, mod_order, num_relays, snr_db):
    # the O(M) slicer against the scoring of all M^2 pairs, on shared draws,
    # and the selection that the kernel detects on against the oracle's
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order, num_relays=num_relays), snr_db)
    gains = sample_gains(cfg, np.random.default_rng(mod_order + num_relays), 4096)
    got = (*run_batch(cfg, gains, draw_stage2(cfg, 4096, np.random.default_rng(31))), *_select(cfg, gains))
    want = brute_force_run_batch(cfg, gains, draw_stage2(cfg, 4096, np.random.default_rng(31)))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("snr_db", [0.0, 30.0])
@pytest.mark.parametrize("mod_order", [2, 4, 8, 16])
def test_relay_decode_matches_brute_force(mod_order, snr_db):
    rng = np.random.default_rng(mod_order)
    size = 4096
    const = modulate(np.arange(mod_order), mod_order)
    h1, h2, noise = (complex_gaussian(rng, size) for _ in range(3))
    sp = math.sqrt(10.0 ** (snr_db / 10.0))
    x1, x2 = (const[rng.integers(0, mod_order, size)] for _ in range(2))
    y = sp * (h1 * x1 + h2 * x2) + noise
    got = _joint_ml(const, [(y, h1, h2, sp, None)])
    want = brute_force_pair(y, h1, h2, sp, mod_order)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


@pytest.mark.parametrize("mod_order", [2, 8])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_silent_source_ties_to_symbol_zero(scheme, mod_order):
    # every link of source 2 is zero, so each x2 hypothesis scores the same
    # and the flat M^2 argmin decides x2 = c_0; under DF-NC the relay hop is
    # cut too, since the relay's decision would otherwise reach the destination
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order), 20.0)
    size = 512
    gains = sample_gains(cfg, np.random.default_rng(61), size)
    sel = _select(cfg, gains)[0]
    stage2 = draw_stage2(cfg, size, np.random.default_rng(62))
    h1b, h2b, hrb = _selected_links(gains, sel, stage2)
    h2b = np.zeros_like(h2b)
    stage2 = stage2._replace(h_s2_d=np.zeros_like(stage2.h_s2_d))
    if scheme is Scheme.DF_NC:
        hrb = np.zeros_like(hrb)
    _, k2 = _decide(cfg, (h1b, h2b, hrb), stage2)
    assert np.array_equal(k2 != stage2.i2, stage2.i2 != 0)
    assert np.array_equal(k2, brute_force_decide(cfg, (h1b, h2b, hrb), stage2)[1])

    # the DF relay's decision on its own, from an arbitrary observation
    const = modulate(np.arange(mod_order), mod_order)
    _, j = _joint_ml(const, [(stage2.h_s1_d, h1b, h2b, 1.0, None)])
    assert not j.any()


@pytest.mark.parametrize("rotation", ["arbitrary", "to_real"])
@pytest.mark.parametrize("snr_db", [0.0, 20.0])
@pytest.mark.parametrize("mod_order", [2, 8, 16])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_decisions_invariant_under_receiver_rotations(scheme, mod_order, snr_db, rotation):
    # why stage 2 draws one phase: rotating h1b, h2b and the relay noise by
    # alpha, hrb by beta, and the slot-2 noise by the angle that this turns
    # the destination's slot-2 observation by (alpha + beta under ANC, beta
    # under DF-NC) changes neither the relay's decision nor the destination's
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order), snr_db)
    rng = np.random.default_rng(mod_order)
    size = 4096
    h1b, h2b, hrb, h_s1_d, h_s2_d = (complex_gaussian(rng, size) for _ in range(5))
    stage2 = draw_symbols(cfg, size, rng)._replace(h_s1_d=h_s1_d, h_s2_d=h_s2_d)
    if rotation == "arbitrary":
        alpha, beta = (rng.uniform(0.0, 2.0 * np.pi, size) for _ in range(2))
    else:  # the form stage 2 draws: h1b and hrb real
        alpha, beta = -np.angle(h1b), -np.angle(hrb)
    turn_alpha, turn_beta = np.exp(1j * alpha), np.exp(1j * beta)
    turn_slot2 = turn_alpha * turn_beta if scheme is Scheme.ANC else turn_beta
    links = (h1b, h2b, hrb)
    rotated = (h1b * turn_alpha, h2b * turn_alpha, hrb * turn_beta)
    rotated_stage2 = stage2._replace(n_relay=stage2.n_relay * turn_alpha, n_d2=stage2.n_d2 * turn_slot2)

    got, want = _decide(cfg, rotated, rotated_stage2), _decide(cfg, links, stage2)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    const = modulate(np.arange(mod_order), mod_order)
    sp = math.sqrt(cfg.p_source)

    def relay(relay_links, s2):
        h1, h2, _ = relay_links
        y = sp * (h1 * const[s2.i1] + h2 * const[s2.i2]) + s2.n_relay
        return _joint_ml(const, [(y, h1, h2, sp, None)])

    got, want = relay(rotated, rotated_stage2), relay(links, stage2)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])


def wilson_interval(count: int, trials: int, z: float = 4.5):
    p = count / trials
    denom = 1.0 + z * z / trials
    center = (p + z * z / (2.0 * trials)) / denom
    half = z * math.sqrt(p * (1.0 - p) / trials + z * z / (4.0 * trials * trials)) / denom
    return center - half, center + half


@pytest.mark.parametrize("num_relays", [1, 3, 10])
@pytest.mark.parametrize("mod_order", [2, 8])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_gain_first_sampler_matches_full_phase_oracle(scheme, mod_order, num_relays):
    # the same rounds in law: outage of the selected-relay SNR at three
    # thresholds, and both sources' error rates, within z = 4.5 Wilson bounds;
    # the gain-first side's SNR is the one that outage counts
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order, num_relays=num_relays), 10.0)
    # quartiles of the DF-NC law (a stand-in for ANC): fixed, mid-range thresholds
    quartiles = np.array([0.25, 0.5, 0.75])
    thresholds = -np.log1p(-(quartiles ** (1.0 / num_relays))) / bottleneck_rate(cfg)
    batches = 4
    trials = batches * BATCH_SIZE
    counts = []

    def gain_first_run(config, gains, stage2):
        return (*run_batch(config, gains, stage2), *_select(config, gains, index=False))

    for stream, (sample, rest, run) in enumerate(
        [(sample_gains, draw_stage2, gain_first_run), (full_phase_gains, draw_symbols, full_phase_run_batch)]
    ):
        tally = np.zeros(5, dtype=np.int64)
        for b in range(batches):
            rng = np.random.default_rng([stream, b, mod_order, num_relays])
            e1, e2, _, best = run(cfg, sample(cfg, rng, BATCH_SIZE), rest(cfg, BATCH_SIZE, rng))
            tally += [*(best[:, None] < thresholds).sum(axis=0), e1.sum(), e2.sum()]
        counts.append(tally)
    for what, new, old in zip(["outage q1", "outage q2", "outage q3", "ser s1", "ser s2"], *counts):
        lo_new, hi_new = wilson_interval(int(new), trials)
        lo_old, hi_old = wilson_interval(int(old), trials)
        assert lo_new <= hi_old and lo_old <= hi_new, f"{what}: {new} vs {old} of {trials}"


def test_relay_normalization_value():
    cfg = anc_config(p_source=1.0, p_relay=2.0)
    assert relay_normalization(cfg) == pytest.approx(math.sqrt(2 * 1.0 + 1.0))


# -- estimate_ser ------------------------------------------------------------------


def test_estimate_deterministic():
    cfg = config_at_snr_db(anc_config(), 8.0)
    a = estimate_ser(cfg, 30_000, seed=3)
    b = estimate_ser(cfg, 30_000, seed=3)
    assert a == b


def test_single_noiseless_trial():
    cfg = anc_config(p_source=1e30, p_relay=1e30)
    est1, est2 = estimate_ser(cfg, 1, seed=1)
    assert est1.ser == 0.0 and est2.ser == 0.0
    assert est1.trials == 1


def test_estimate_rejects_zero_trials():
    with pytest.raises(ValueError):
        estimate_ser(anc_config(), 0, seed=1)


def whole_batch_flags(cfg, trials, seed):
    """Both sources' error flags of every trial, from run_batch on whole
    batches of the estimator's draws."""
    flags = [
        run_batch(cfg, sample_gains(cfg, rng, size), chunked_stage2(cfg, size, rng))
        for rng, size in _batches(seed, trials)
    ]
    return np.concatenate([f[0] for f in flags]), np.concatenate([f[1] for f in flags])


def exact_stop(e1, e2, stop):
    """(source-1 errors, source-2 errors, trials) up to the first trial at
    which both sources have ``stop`` errors, or over every trial."""
    c1, c2 = np.cumsum(e1), np.cumsum(e2)
    hits = np.flatnonzero(np.minimum(c1, c2) >= stop) if stop is not None else []
    t = int(hits[0]) if len(hits) else len(e1) - 1
    return int(c1[t]), int(c2[t]), t + 1


def counts(pair):
    est1, est2 = pair
    assert est1.trials == est2.trials
    return est1.errors, est2.errors, est1.trials


def seed_with_stops_in(cfg, trials, rows, tries=200):
    """The first seed from 0 whose whole-batch flags put a stop in each of
    ``rows`` (the fewer-errors source gains its first or next error there),
    with those flags.  Searched from a fixed start, so that a change of the
    random stream moves the seed, not the rows that the test covers."""
    for seed in range(tries):
        e1, e2 = whole_batch_flags(cfg, trials, seed)
        low = np.minimum(np.cumsum(e1), np.cumsum(e2))
        if all(low[row] > (low[row - 1] if row else 0) for row in rows):
            return seed, e1, e2
    raise AssertionError(f"no seed below {tries} puts a stop in each of rows {rows}")


@pytest.mark.parametrize(
    "scheme, rows",
    [
        # a batch's first row, the first batch's last row, the second
        # batch's first row, the last row of a partial last batch
        (Scheme.DF_NC, [0, 2 * BATCH_SIZE + 4]),
        (Scheme.ANC, [BATCH_SIZE - 1, BATCH_SIZE]),
    ],
    ids=["df", "anc"],
)
def test_early_exit_stops_at_the_exact_trial(scheme, rows):
    # the stop counts of the first trials at which the fewer-errors source
    # gains its next error, at 0 dB, where both sources err often
    cfg = config_at_snr_db(anc_config(scheme=scheme), 0.0)
    trials = 2 * BATCH_SIZE + 5
    seed, e1, e2 = seed_with_stops_in(cfg, trials, rows)
    low = np.minimum(np.cumsum(e1), np.cumsum(e2))
    for row in rows:
        stop = int(low[row])
        want = exact_stop(e1, e2, stop)
        assert want[2] == row + 1  # the seed puts a stop in this row
        assert counts(estimate_ser(cfg, trials, seed, max_errors=stop)) == want
    # a stop in the middle of the second batch, and none
    stop = int(low[BATCH_SIZE + 1000])
    assert counts(estimate_ser(cfg, trials, seed, max_errors=stop)) == exact_stop(e1, e2, stop)
    full = counts(estimate_ser(cfg, trials, seed, max_errors=None))
    assert full == (int(e1.sum()), int(e2.sum()), trials)


@pytest.mark.parametrize("seed", [0, 12345, 2**63 + 5])
def test_batches_draw_the_jumped_philox_streams(seed):
    # batch b's generator starts at counter (0, 0, b, 0), where b jumps of
    # Philox(seed) put it: the stream that every recorded result was drawn on
    trials = 7 * BATCH_SIZE + 3
    for b, (rng, size) in enumerate(_batches(seed, trials)):
        jumped = np.random.Generator(np.random.Philox(key=seed).jumped(b))
        assert rng.standard_exponential(1000).tobytes() == jumped.standard_exponential(1000).tobytes()
        assert size == (BATCH_SIZE if b < 7 else 3)
    assert b == 7


def test_complex_gaussian_fills_in_place_with_the_reference_bits():
    # stage 2 writes each complex Gaussian's polar parts, r*cos(psi) and
    # r*sin(psi), straight into a slice of its complex64 batch buffer: the
    # bits of the allocating form, and nothing outside the slice
    size = BATCH_SIZE + 3
    buf = np.zeros(size + 10, np.complex64)
    _complex_gaussian(np.random.Generator(np.random.Philox(key=3)), buf[4 : size + 4])
    want = complex_gaussian(np.random.Generator(np.random.Philox(key=3)), size)
    assert buf[4 : size + 4].tobytes() == want.tobytes()
    assert not buf[:4].any() and not buf[size + 4 :].any()


def test_complex_gaussian_has_the_cn01_law():
    # the polar draw, the root of a unit exponential at a uniform angle, is
    # CN(0, 1): E|h|^2 = 1, E h^2 = 0, |h|^2 unit exponential, and each part
    # normal with variance 1/2
    n = 1 << 18
    h = np.empty(n, np.complex64)
    _complex_gaussian(np.random.Generator(np.random.Philox(key=8)), h)
    h = h.astype(complex)
    power = np.abs(h) ** 2
    assert abs(power.mean() - 1.0) < 4.0 / math.sqrt(n)  # Var |h|^2 = 1
    assert abs(np.mean(h * h)) < 4.0 * math.sqrt(2.0 / n)  # E|h^2|^2 = 2
    assert kstest(power, "expon").pvalue > 1e-3
    for part in (h.real, h.imag):
        assert kstest(part * math.sqrt(2.0), "norm").pvalue > 1e-3


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_detection_runs_in_single_precision(monkeypatch, scheme):
    # every array that reaches _joint_ml, the relay's call and the
    # destination's, is float32 or complex64: an upcast anywhere upstream
    # would silently run detection in double precision
    seen, detect = [], montecarlo._joint_ml

    def spy(const, slots, nc=None):
        args = [const, *(x for slot in slots for x in slot), *(nc or ())]
        seen.extend(x.dtype for x in args if isinstance(x, np.ndarray))
        return detect(const, slots, nc)

    monkeypatch.setattr(montecarlo, "_joint_ml", spy)
    config = config_at_snr_db(anc_config(scheme=scheme, mod_order=8, num_relays=3), 10.0)
    estimate_group([config], BATCH_SIZE + 5, seed=3)
    assert set(seen) == {np.dtype(np.float32), np.dtype(np.complex64)}


def test_stage2_is_drawn_only_where_detection_reads(monkeypatch):
    # each batch draws its stage-2 chunks once, in order, as far as the
    # furthest detection slice of any config reads, clipped to the batch
    chunks = []
    fill = montecarlo._draw_stage2

    def spy(config, stage2, lo, hi, rng):
        chunks.append((lo, hi))
        fill(config, stage2, lo, hi, rng)

    monkeypatch.setattr(montecarlo, "_draw_stage2", spy)

    def drawn(configs, trials, **kw):
        chunks.clear()
        estimates = estimate_group(configs, trials, seed=4, **kw)
        return [pair[0].trials for pair, _ in estimates if pair is not None], list(chunks)

    early = [config_at_snr_db(anc_config(), snr) for snr in (0.0, 3.0)]
    capped = config_at_snr_db(anc_config(), 25.0)
    whole = [(0, 2048), (2048, 4096), (4096, 8192), (8192, BATCH_SIZE)]

    stops, got = drawn(early, 3 * BATCH_SIZE, max_errors=100)
    assert max(stops) < 2048 and got == [(0, 2048)]
    stops, got = drawn([*early, capped], 2 * BATCH_SIZE + 3000)
    assert stops[-1] == 2 * BATCH_SIZE + 3000 and got == whole * 2 + [(0, 2048), (2048, 3000)]
    assert drawn([capped], BATCH_SIZE + 5)[1] == whole + [(0, 5)]
    assert drawn([*early, capped], 2 * BATCH_SIZE, ser=False, gamma_th=1.0) == ([], [])


def test_kernel_calls_per_batch(monkeypatch):
    # detection slices are few and large, and do not follow the stage-2
    # chunks: a config that runs to the cap detects in at most two calls in
    # its first batch (the probe, then the rest) and in one call in each
    # later batch, and a config that has stopped makes none; when outage is
    # asked for, each config counts it in one selection over the whole
    # batch, with no relay index, and detects as without
    calls, kernel, select, sampler = [], montecarlo.run_batch, montecarlo._select, montecarlo.sample_gains
    batch = [-1]

    def sample(config, rng, size):
        batch[0] += 1
        return sampler(config, rng, size)

    def counted(config, gb, stage2):
        calls.append((config, batch[0], "detect", len(gb.g_s1_r)))
        return kernel(config, gb, stage2)

    def selected(config, gb, index=True):
        if not index:
            calls.append((config, batch[0], "outage", len(gb.g_s1_r)))
        return select(config, gb, index)

    monkeypatch.setattr(montecarlo, "sample_gains", sample)
    monkeypatch.setattr(montecarlo, "run_batch", counted)
    monkeypatch.setattr(montecarlo, "_select", selected)
    early, capped = (config_at_snr_db(anc_config(), snr) for snr in (0.0, 25.0))
    trials = 3 * BATCH_SIZE + 5
    sizes = [BATCH_SIZE] * 3 + [5]

    def rows(config, b, kind):
        return [n for c, at, how, n in calls if c == config and at == b and how == kind]

    detections = []
    for gamma_th in (1.0, None):
        calls.clear()
        batch[0] = -1
        (stopped, _), (full, _) = estimate_group([early, capped], trials, seed=4, gamma_th=gamma_th)
        assert stopped[0].trials < BATCH_SIZE and full[0].trials == trials
        detections.append([call for call in calls if call[2] == "detect"])
        for b, size in enumerate(sizes):
            assert 1 <= len(rows(capped, b, "detect")) <= (2 if b == 0 else 1)
            assert sum(rows(capped, b, "detect")) == size
            assert (sum(rows(early, b, "detect")) > 0) == (b == 0)
            for config in (early, capped):
                assert rows(config, b, "outage") == ([size] if gamma_th is not None else [])
    assert detections[0] == detections[1]

    # 16-PSK detects at most 2,048 rows (2^15 PSK-point elements) per call,
    # however far a config runs
    calls.clear()
    at_cap = config_at_snr_db(anc_config(mod_order=16), 40.0)
    ((full, _), _), = estimate_group([at_cap], BATCH_SIZE + 5, seed=4)
    detected = [n for _, _, det, n in calls if det]
    assert full.trials == sum(detected) == BATCH_SIZE + 5 and max(detected) == 2048


@pytest.mark.parametrize("mod_order", [2, 16, 64])
def test_detection_calls_stay_within_the_element_budget(monkeypatch, mod_order):
    # rows * M <= _DETECT_ELEMENTS on every detection call, and a config that
    # runs on detects in calls as large as that allows (a whole second batch
    # at BPSK)
    rows, kernel = [], montecarlo.run_batch

    def counted(config, gb, stage2):
        rows.append(len(gb.g_s1_r))
        return kernel(config, gb, stage2)

    monkeypatch.setattr(montecarlo, "run_batch", counted)
    for scheme in Scheme:
        configs = [config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order), snr) for snr in (10.0, 40.0)]
        estimate_group(configs, 2 * BATCH_SIZE, seed=4)
    assert max(rows) == min(BATCH_SIZE, montecarlo._DETECT_ELEMENTS // mod_order)


def traced_peak(fn, *args, **kwargs) -> int:
    """Peak bytes that tracemalloc sees ``fn`` allocate above what is live
    when it starts."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_detection_memory_is_bounded_at_any_psk_order(scheme):
    # M = 65,536 detects one row per call, in about 2.4 MB; as one 20-row
    # call it took over 100 MB
    config = config_at_snr_db(anc_config(scheme=scheme, mod_order=1 << 16), 10.0)
    assert traced_peak(estimate_group, [config], 20, seed=4, gamma_th=1.0) < 32 << 20


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_bpsk_detection_call_bytes_per_row(scheme):
    # one whole-batch BPSK call peaks near 148 B (ANC) and 124 B (DF) per
    # row in single precision; in double precision it took 200 and 176, and
    # before its temporaries were built in place and freed early about 392
    # and 360
    config = config_at_snr_db(anc_config(scheme=scheme, num_relays=3), 10.0)
    gains = sample_gains(config, np.random.default_rng(5), BATCH_SIZE)
    stage2 = draw_stage2(config, BATCH_SIZE, np.random.default_rng(6))
    assert traced_peak(run_batch, config, gains, stage2) / BATCH_SIZE < 170


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_16psk_detection_call_bytes_per_row(scheme):
    # a 16-PSK call covers 2,048 rows, the 2^15-element cap, and peaks near
    # 462 B (ANC) and 438 B (DF) per row in single precision, each slot's
    # (M, rows) term built in place; in double precision, with ANC's second
    # slot adding h1*c_i out of place, it took 1,010 and 866
    rows = montecarlo._DETECT_ELEMENTS // 16
    config = config_at_snr_db(anc_config(scheme=scheme, num_relays=3, mod_order=16), 10.0)
    gains = sample_gains(config, np.random.default_rng(5), rows)
    stage2 = draw_stage2(config, rows, np.random.default_rng(6))
    assert traced_peak(run_batch, config, gains, stage2) / rows < 520


@pytest.mark.parametrize("max_errors", [0, -5, True, 2.5])
def test_max_errors_must_be_none_or_a_positive_integer(max_errors):
    with pytest.raises(ValueError, match="max_errors"):
        estimate_ser(anc_config(), 1000, seed=1, max_errors=max_errors)
    with pytest.raises(ValueError, match="max_errors"):
        estimate_group([anc_config()], 1000, seed=1, ser=False, gamma_th=1.0, max_errors=max_errors)


@pytest.mark.parametrize("rows", [7, 2048, None, "64-elements"],
                         ids=["7-rows", "2048-rows", "whole-batches", "64-element-calls"])
@pytest.mark.parametrize(
    "scheme, mod_order, snrs",
    [(Scheme.ANC, 2, (0.0, 12.0, 25.0)), (Scheme.DF_NC, 2, (0.0, 16.0, 25.0)),
     (Scheme.ANC, 16, (20.0, 30.0, 35.0)), (Scheme.DF_NC, 16, (20.0, 40.0, 45.0))],
    ids=["Scheme.ANC", "Scheme.DF_NC", "Scheme.ANC-16psk", "Scheme.DF_NC-16psk"],
)
def test_estimates_do_not_depend_on_the_slicing(monkeypatch, scheme, mod_order, snrs, rows):
    # the detection slices are private: any sizes give the same bits, for
    # SER configs that stop in the first batch, in the second or not at all,
    # and for the outage counted past each stop; so does a detection call
    # capped at 64 PSK-point elements (32 rows at BPSK, 4 at 16-PSK)
    configs = [config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order), snr) for snr in snrs]
    trials, seed, stop = 2 * BATCH_SIZE + 5, 4, 300
    want = estimate_group(configs, trials, seed, gamma_th=1.0, max_errors=stop)
    first, second, capped = (est.trials for (est, _), _ in want)
    assert first < BATCH_SIZE < second < capped == trials

    def next_slice(done, err1, err2, max_errors, rest):
        return rest if rows is None else min(rows, rest)

    if rows == "64-elements":
        monkeypatch.setattr(montecarlo, "_DETECT_ELEMENTS", 64)
    else:
        monkeypatch.setattr(montecarlo, "_next_slice", next_slice)
    assert estimate_group(configs, trials, seed, gamma_th=1.0, max_errors=stop) == want


def test_per_source_symmetry():
    cfg = config_at_snr_db(anc_config(num_relays=2), 8.0)
    est1, est2 = estimate_ser(cfg, 200_000, seed=11, max_errors=None)
    pooled = (est1.errors + est2.errors) / (est1.trials + est2.trials)
    se = math.sqrt(2 * pooled * (1 - pooled) / est1.trials)
    assert abs(est1.ser - est2.ser) < 4 * se


def test_wilson_interval_sane():
    est = SerEstimate(0, 1000, 0.0, 0.0036)
    assert est.ci_halfwidth > 0
    with pytest.raises(ValueError):
        SerEstimate(10, 5, 2.0, 0.1)


def test_relay_power_off_reduces_to_direct_only():
    # with the relay silenced the two-observation detector collapses to the
    # slot-1 joint ML baseline
    p_total = 4.0
    cfg = anc_config(p_source=p_total / 2, p_relay=1e-30)
    trials = 150_000
    est1, _ = estimate_ser(cfg, trials, seed=21, max_errors=None)
    ref = direct_only_pair_ml_ser(p_total / 2, trials, seed=22)
    se = math.sqrt(2 * ref * (1 - ref) / trials)
    assert abs(est1.ser - ref) < 4 * se


def test_dead_relay_destination_link_reduces_to_direct_only():
    p_total = 4.0
    # the relay hears the sources at the equal split but cannot reach the destination
    cfg = df_config(num_relays=3, p_source=p_total / 3, p_relay=1e-30)
    trials = 150_000
    est1, _ = estimate_ser(cfg, trials, seed=31, max_errors=None)
    ref = direct_only_pair_ml_ser(p_total / 3, trials, seed=32)
    se = math.sqrt(2 * ref * (1 - ref) / trials)
    assert abs(est1.ser - ref) < 4 * se


# -- selection SNR sampling and outage ----------------------------------------------


def test_outage_zero_threshold():
    assert estimate_outage(config_at_snr_db(df_config(), 10.0), 0.0, 20_000, seed=4) == 0.0


def test_outage_rejects_negative_threshold():
    with pytest.raises(ValueError):
        estimate_outage(df_config(), -1.0, 100, seed=4)


def test_outage_rejects_nan_threshold():
    # as best_cdf does; NaN fails every comparison, so a `< 0` check lets it through
    with pytest.raises(ValueError):
        estimate_outage(SystemConfig(2, 3.0, 3.0), math.nan, 1000, seed=1)


@pytest.mark.parametrize("gamma_th", [-1.0, math.nan], ids=["negative", "nan"])
def test_outage_group_rejects_bad_threshold(gamma_th):
    configs = [config_at_snr_db(df_config(), snr) for snr in (5.0, 10.0)]
    with pytest.raises(ValueError, match="gamma_th"):
        estimate_group(configs, 1000, seed=1, gamma_th=gamma_th)


@pytest.mark.parametrize(
    "configs",
    [
        [],
        [df_config(), anc_config()],
        [df_config(), df_config(mod_order=4)],
        [df_config(), df_config(num_relays=3)],
    ],
    ids=["empty", "scheme", "mod-order", "relay-count"],
)
def test_outage_group_rejects_configs_that_cannot_share_gains(configs):
    # the symbols that stage 2 draws depend on the PSK order, so a group
    # shares it too
    with pytest.raises(ValueError, match="group"):
        estimate_group(configs, 1000, seed=1, gamma_th=1.0)


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_outage_group_matches_each_config_alone(scheme):
    # one draw of gains per batch serves every config; each estimate keeps
    # the bits it has alone, over whole batches and a partial last one
    configs = [config_at_snr_db(anc_config(num_relays=3, scheme=scheme), snr) for snr in (5.0, 10.0, 15.0)]
    trials = 2 * BATCH_SIZE + 5
    group = [outage for _, outage in estimate_group(configs, trials, seed=3, ser=False, gamma_th=1.0)]
    assert group == [estimate_outage(c, 1.0, trials, seed=3) for c in configs]
    assert group == [float(np.mean(sample_best_snr(c, trials, 3) < 1.0)) for c in configs]


@pytest.mark.parametrize("snr_db", [0.0, 10.0, 25.0])
@pytest.mark.parametrize("num_relays", [1, 3, 10])
@pytest.mark.parametrize("mod_order", [2, 8])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_estimate_ser_is_a_loop_of_run_batch(scheme, mod_order, num_relays, snr_db):
    # the estimator behind every SER row stops where run_batch's flags on
    # whole batches of its draws first give both sources MAX_ERRORS errors,
    # so the brute-force checks of run_batch cover it: a whole batch and a
    # partial last one
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order, num_relays=num_relays), snr_db)
    trials = BATCH_SIZE + 5
    want = exact_stop(*whole_batch_flags(cfg, trials, 9), MAX_ERRORS)
    assert counts(estimate_ser(cfg, trials, seed=9)) == want


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_group_estimates_do_not_depend_on_group_mates(scheme):
    # each config gets alone what it gets in a group of mixed SNR and split,
    # whose SER configs stop at different trials, in any order, with and
    # without outage: so a resume that recomputes only a group's missing
    # cells writes the bytes of a full run
    base = anc_config(scheme=scheme, num_relays=2)
    configs = [config_at_snr_db(base, snr) for snr in (0.0, 10.0, 18.0)]
    configs.append(SystemConfig(2, 2.0, 6.0, scheme=scheme))  # 10 dB, unequal split
    trials, seed, stop = 4 * BATCH_SIZE + 3, 5, 1000
    alone = [estimate_ser(c, trials, seed, stop) for c in configs]
    assert len({est.trials for est, _ in alone}) >= 3
    group = estimate_group(configs, trials, seed, max_errors=stop)
    assert group == [(est, None) for est in alone]
    assert estimate_group(configs[::-1], trials, seed, max_errors=stop) == group[::-1]
    with_outage = estimate_group(configs[1:], trials, seed, gamma_th=1.0, max_errors=stop)
    assert with_outage == [(est, estimate_outage(c, 1.0, trials, seed)) for est, c in zip(alone[1:], configs[1:])]


def test_df_outage_matches_order_statistics():
    cfg = config_at_snr_db(df_config(num_relays=2), 10.0)
    trials = 200_000
    p = estimate_outage(cfg, 1.0, trials, seed=8)
    dist = BestRelayDistribution(2, bottleneck_rate(cfg))
    ref = best_cdf(dist, 1.0)
    se = math.sqrt(ref * (1 - ref) / trials)
    assert abs(p - ref) < 3 * se


def test_df_best_snr_distribution():
    cfg = config_at_snr_db(df_config(num_relays=3), 10.0)
    samples = sample_best_snr(cfg, 200_000, seed=14)
    dist = BestRelayDistribution(3, bottleneck_rate(cfg))
    stat = kstest(samples, lambda x: best_cdf(dist, x)).statistic
    assert stat < 0.01


def test_anc_best_snr_matches_exact_distribution():
    # validates the simulator against the exact amplified-path law (any SNR)
    cfg = config_at_snr_db(anc_config(num_relays=2), 10.0)
    samples = sample_best_snr(cfg, 200_000, seed=15)
    stat = kstest(samples, lambda x: exact_best_bottleneck_cdf(cfg, x)).statistic
    assert stat < 0.01


def test_anc_selection_snr_exponential_surrogate_gap_is_scale_invariant():
    # the rate-sum exponential surrogate for the amplified path converges only
    # in the lower tail: its KS distance stays near 0.137 at any SNR, so tail
    # metrics (SER, outage) must rely on it only deep in the tail
    for snr_db in (30.0, 60.0):
        cfg = config_at_snr_db(anc_config(num_relays=1), snr_db)
        samples = sample_best_snr(cfg, 200_000, seed=16)
        rate = bottleneck_rate(cfg)
        stat = kstest(samples, lambda x: 1.0 - np.exp(-rate * x)).statistic
        assert 0.10 < stat < 0.17
        exact = kstest(samples, lambda x: exact_best_bottleneck_cdf(cfg, x)).statistic
        assert exact < 0.01


def test_outage_limits():
    cfg = config_at_snr_db(df_config(), 10.0)
    assert estimate_outage(cfg, 1e9, 20_000, seed=4) == 1.0
    cfg_anc = config_at_snr_db(anc_config(), 10.0)
    assert estimate_outage(cfg_anc, 1e9, 20_000, seed=4) == 1.0
    assert estimate_outage(cfg_anc, 0.0, 20_000, seed=4) == 0.0


def test_ser_monotone_in_snr():
    # nonincreasing across the sweep, allowing one-standard-error violations
    prev = None
    for snr_db in (2.0, 6.0, 10.0, 14.0):
        est, _ = estimate_ser(config_at_snr_db(anc_config(), snr_db), 60_000, seed=19, max_errors=None)
        se = math.sqrt(max(est.ser * (1 - est.ser), 1e-12) / est.trials)
        if prev is not None:
            assert est.ser <= prev + se
        prev = est.ser


# -- calibration baseline --------------------------------------------------------------


def test_single_link_matches_closed_form():
    trials = 200_000
    for snr_db, seed in ((5.0, 41), (15.0, 42)):
        est = single_link_ser(snr_db, trials, seed)
        ref = rayleigh_bpsk_ser(10 ** (snr_db / 10))
        se = math.sqrt(ref * (1 - ref) / trials)
        assert abs(est.ser - ref) < 3 * se
