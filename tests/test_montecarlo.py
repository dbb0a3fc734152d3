import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.stats import kstest

from oracles import (
    brute_force_decide,
    brute_force_pair,
    brute_force_run_batch,
    config_at_snr_db,
    direct_only_pair_ml_ser,
    exact_best_bottleneck_cdf,
    full_phase_gains,
    full_phase_run_batch,
    rayleigh_bpsk_ser,
    single_link_ser,
)
from marcsim.analytic import BestRelayDistribution, best_cdf
from marcsim.model import Scheme, SystemConfig, bottleneck_rate
from marcsim.montecarlo import (
    BATCH_SIZE,
    MAX_ERRORS,
    SerEstimate,
    estimate_group,
    estimate_outage,
    estimate_ser,
    modulate,
    relay_normalization,
    relay_snrs,
    run_batch,
    sample_best_snr,
    sample_gains,
    select_relay,
    _Links,
    _batches,
    _complex_gaussian,
    _decide,
    _draw_stage2,
    _draw_symbols,
    _relay_decode,
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
    t1 = run_batch(cfg, gains, np.random.default_rng(9))
    t2 = run_batch(cfg, gains, np.random.default_rng(9))
    for a, b in zip(t1, t2):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_noiseless_detection_is_exact(scheme):
    cfg = anc_config(scheme=scheme, p_source=1e30, p_relay=1e30, num_relays=2)
    rng = np.random.default_rng(77)
    e1, e2, selected, _ = run_batch(cfg, sample_gains(cfg, rng, 50), rng)
    assert not e1.any() and not e2.any()
    assert np.all(selected < cfg.num_relays)


@pytest.mark.parametrize("snr_db", [0.0, 30.0])
@pytest.mark.parametrize("num_relays", [1, 3])
@pytest.mark.parametrize("mod_order", [2, 4, 8, 16])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_joint_ml_matches_brute_force(scheme, mod_order, num_relays, snr_db):
    # the O(M) slicer against the scoring of all M^2 pairs, on shared draws
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order, num_relays=num_relays), snr_db)
    gains = sample_gains(cfg, np.random.default_rng(mod_order + num_relays), 4096)
    got = run_batch(cfg, gains, np.random.default_rng(31))
    want = brute_force_run_batch(cfg, gains, np.random.default_rng(31))
    for a, b in zip(got, want):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("snr_db", [0.0, 30.0])
@pytest.mark.parametrize("mod_order", [2, 4, 8, 16])
def test_relay_decode_matches_brute_force(mod_order, snr_db):
    rng = np.random.default_rng(mod_order)
    size = 4096
    const = modulate(np.arange(mod_order), mod_order)
    h1, h2, noise = (_complex_gaussian(rng, size) for _ in range(3))
    sp = math.sqrt(10.0 ** (snr_db / 10.0))
    x1, x2 = (const[rng.integers(0, mod_order, size)] for _ in range(2))
    y = sp * (h1 * x1 + h2 * x2) + noise
    got = _relay_decode(y, h1, h2, sp, const)
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
    sel = select_relay(*relay_snrs(cfg, gains))[0]
    stage2 = _draw_stage2(cfg, size, np.random.default_rng(62))
    links = _selected_links(gains, sel, stage2)
    silent = dict(h2b=np.zeros_like(links.h2b), h_s2_d=np.zeros_like(links.h_s2_d))
    if scheme is Scheme.DF_NC:
        silent["hrb"] = np.zeros_like(links.hrb)
    links = links._replace(**silent)
    draws = stage2[-1]
    _, k2 = _decide(cfg, links, draws)
    assert np.array_equal(k2 != draws.i2, draws.i2 != 0)
    assert np.array_equal(k2, brute_force_decide(cfg, links, draws)[1])

    # the DF relay's decision on its own, from an arbitrary observation
    const = modulate(np.arange(mod_order), mod_order)
    _, j = _relay_decode(links.h_s1_d, links.h1b, links.h2b, 1.0, const)
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
    links = _Links(*(_complex_gaussian(rng, size) for _ in range(5)))
    draws = _draw_symbols(cfg, size, rng)
    if rotation == "arbitrary":
        alpha, beta = (rng.uniform(0.0, 2.0 * np.pi, size) for _ in range(2))
    else:  # the form stage 2 draws: h1b and hrb real
        alpha, beta = -np.angle(links.h1b), -np.angle(links.hrb)
    turn_alpha, turn_beta = np.exp(1j * alpha), np.exp(1j * beta)
    turn_slot2 = turn_alpha * turn_beta if scheme is Scheme.ANC else turn_beta
    rotated = links._replace(h1b=links.h1b * turn_alpha, h2b=links.h2b * turn_alpha, hrb=links.hrb * turn_beta)
    rotated_draws = draws._replace(n_relay=draws.n_relay * turn_alpha, n_d2=draws.n_d2 * turn_slot2)

    got, want = _decide(cfg, rotated, rotated_draws), _decide(cfg, links, draws)
    assert np.array_equal(got[0], want[0]) and np.array_equal(got[1], want[1])
    const = modulate(np.arange(mod_order), mod_order)
    sp = math.sqrt(cfg.p_source)

    def relay(lk, dr):
        y = sp * (lk.h1b * const[dr.i1] + lk.h2b * const[dr.i2]) + dr.n_relay
        return _relay_decode(y, lk.h1b, lk.h2b, sp, const)

    got, want = relay(rotated, rotated_draws), relay(links, draws)
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
    # thresholds, and both sources' error rates, within z = 4.5 Wilson bounds
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order, num_relays=num_relays), 10.0)
    # quartiles of the DF-NC law (a stand-in for ANC): fixed, mid-range thresholds
    quartiles = np.array([0.25, 0.5, 0.75])
    thresholds = -np.log1p(-(quartiles ** (1.0 / num_relays))) / bottleneck_rate(cfg)
    batches = 4
    trials = batches * BATCH_SIZE
    counts = []
    for stream, (sample, run) in enumerate(
        [(sample_gains, run_batch), (full_phase_gains, full_phase_run_batch)]
    ):
        tally = np.zeros(5, dtype=np.int64)
        for b in range(batches):
            rng = np.random.default_rng([stream, b, mod_order, num_relays])
            e1, e2, _, best = run(cfg, sample(cfg, rng, BATCH_SIZE), rng)
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


def test_early_exit_stops_at_batch_boundary():
    cfg = config_at_snr_db(anc_config(), 0.0)
    est1, _ = estimate_ser(cfg, 10 * BATCH_SIZE, seed=2, max_errors=50)
    assert est1.trials == BATCH_SIZE  # plenty of errors at 0 dB
    full1, _ = estimate_ser(cfg, 2 * BATCH_SIZE, seed=2, max_errors=None)
    assert full1.trials == 2 * BATCH_SIZE


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
    # the estimator behind every SER row runs run_batch's draws and kernel,
    # so the brute-force checks of run_batch cover it: a whole batch and a
    # partial last one, with the early stop
    cfg = config_at_snr_db(anc_config(scheme=scheme, mod_order=mod_order, num_relays=num_relays), snr_db)
    trials = BATCH_SIZE + 5
    err1 = err2 = done = 0
    for rng, size in _batches(9, trials):
        e1, e2, _, _ = run_batch(cfg, sample_gains(cfg, rng, size), rng)
        err1, err2, done = err1 + int(e1.sum()), err2 + int(e2.sum()), done + size
        if min(err1, err2) >= MAX_ERRORS:
            break
    est1, est2 = estimate_ser(cfg, trials, seed=9)
    assert (est1.errors, est2.errors, est1.trials, est2.trials) == (err1, err2, done, done)


@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_group_estimates_do_not_depend_on_group_mates(scheme):
    # each config gets alone what it gets in a group of mixed SNR and split,
    # whose SER configs stop at different batches, in any order, with and
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
