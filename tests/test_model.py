import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from marcsim.model import (
    Scheme,
    SystemConfig,
    _gammas,
    bottleneck_rate,
    compute_rate_params,
)
from marcsim.experiment import _Cell, _cell_powers
from marcsim.montecarlo import (
    GainBatch,
    _draw_stage2,
    _selected_links,
    anc_snr,
    relay_snrs,
    sample_gains,
    select_relay,
)


def make_config(**kw):
    base = dict(num_relays=2, p_source=1.0, p_relay=1.0)
    base.update(kw)
    return SystemConfig(**base)


# -- configuration invariants -------------------------------------------------


def test_gammas_from_power_ratio():
    # the source/relay power ratio is read off the two powers
    cfg = make_config(p_source=2.0, p_relay=4.0)
    assert _gammas(cfg)[0] == pytest.approx(2.0 / 1.5)


@pytest.mark.parametrize(
    "kw",
    [
        dict(num_relays=0),
        dict(p_source=0.0),
        dict(p_relay=-1.0),
        dict(p_relay=0.0),
        dict(mod_order=3),
        dict(mod_order=1),
        dict(scheme="anc"),
        dict(num_relays=True),
    ],
)
def test_invalid_configs_rejected(kw):
    with pytest.raises(ValueError):
        make_config(**kw)


# -- channel sampling --------------------------------------------------------


def test_same_seed_same_gains():
    cfg = make_config(num_relays=4)
    g1 = sample_gains(cfg, np.random.default_rng(123), 8)
    g2 = sample_gains(cfg, np.random.default_rng(123), 8)
    assert np.array_equal(g1.g_s1_r, g2.g_s1_r)
    assert np.array_equal(g1.g_s2_r, g2.g_s2_r)
    assert np.array_equal(g1.g_r_d, g2.g_r_d)
    # the direct links are drawn in stage 2, after selection
    sel = select_relay(*relay_snrs(cfg, g1))[0]
    l1 = _selected_links(g1, sel, _draw_stage2(cfg, 8, np.random.default_rng(5)))
    l2 = _selected_links(g2, sel, _draw_stage2(cfg, 8, np.random.default_rng(5)))
    assert np.array_equal(l1.h_s1_d, l2.h_s1_d) and np.array_equal(l1.h_s2_d, l2.h_s2_d)


def test_df_draws_destination_gain_after_selection():
    # DF-NC selection never reads the relay->destination gains, so stage 1
    # leaves them out and stage 2 draws the selected relay's alone
    cfg = make_config(scheme=Scheme.DF_NC, num_relays=3)
    g = sample_gains(cfg, np.random.default_rng(0), 8)
    assert g.g_r_d is None
    sel = select_relay(*relay_snrs(cfg, g))[0]
    links = _selected_links(g, sel, _draw_stage2(cfg, 8, np.random.default_rng(1)))
    assert links.hrb.shape == (8,) and np.all(links.hrb > 0)


def test_gain_power_matches_variance():
    # law of large numbers on |h|^2, accumulated independently with fsum
    # rather than through any numpy reduction
    per_row = 64
    cfg = make_config(num_relays=per_row)
    rows = 10**6 // per_row
    gains = sample_gains(cfg, np.random.default_rng(2024), rows).g_s1_r
    total = math.fsum(gains.ravel().tolist())
    assert 0.997 <= total / (rows * per_row) <= 1.003


# -- per-relay SNR formulas ----------------------------------------------------


def test_anc_snr_printed_example():
    assert anc_snr(1.0, 1.0, 10.0, 10.0) == pytest.approx(100.0 / 21.0)


def test_anc_snr_zero_gain_kills_path():
    assert anc_snr(0.0, 5.0, 10.0, 10.0) == 0.0
    assert anc_snr(5.0, 0.0, 10.0, 10.0) == 0.0


def test_anc_snr_high_snr_harmonic_mean_limit():
    g = 1e6
    got = anc_snr(1.0, 1.0, g, g)
    harmonic = g * g / (g + g)
    assert abs(got - harmonic) / harmonic < 1e-5


@given(
    a=st.floats(0, 1e6),
    c=st.floats(0, 1e6),
    gs=st.floats(1e-3, 1e6),
    gr=st.floats(1e-3, 1e6),
)
def test_anc_snr_bounded_by_either_hop(a, c, gs, gr):
    snr = anc_snr(a, c, gs, gr)
    assert snr <= min(gs * a, gr * c) + 1e-12


@given(
    a=st.floats(0, 1e3),
    da=st.floats(0, 1e3),
    c=st.floats(0, 1e3),
    dc=st.floats(0, 1e3),
)
def test_anc_snr_monotone_in_gains(a, da, c, dc):
    base = anc_snr(a, c, 2.0, 3.0)
    assert anc_snr(a + da, c, 2.0, 3.0) >= base - 1e-15
    assert anc_snr(a, c + dc, 2.0, 3.0) >= base - 1e-15


def df_snr(gain_sq, gamma_r):
    # DF per-relay SNR through the kernel: source 1's link, gamma_r = p_relay
    cfg = make_config(scheme=Scheme.DF_NC, p_source=gamma_r, p_relay=gamma_r)
    g = np.asarray(gain_sq, dtype=float)
    return relay_snrs(cfg, GainBatch(g, g, None))[0]


def test_df_snr_values():
    assert df_snr(2.0, 5.0) == pytest.approx(10.0)
    assert df_snr(0.0, 5.0) == 0.0
    assert df_snr(1.0, 1.0) == 1.0


def test_df_snr_distribution_is_exponential():
    # 1e6 channel draws: |h|^2 * Gamma_R ~ exp with rate 1/Gamma_R
    cfg = make_config(scheme=Scheme.DF_NC, p_relay=2.0, p_source=2.0)
    _, gamma_r = _gammas(cfg)
    g = sample_gains(cfg, np.random.default_rng(7), 10**6)
    snr = relay_snrs(cfg, g)[0].ravel()
    rate = 1.0 / gamma_r
    stat = kstest(snr, lambda x: 1.0 - np.exp(-rate * x)).statistic
    assert stat < 0.002


# -- rate parameters -----------------------------------------------------------


def test_rate_params_unit_example():
    gamma_s, gamma_r = _gammas(make_config())
    assert gamma_s == pytest.approx(0.5)
    assert gamma_r == pytest.approx(1.0)


def test_anc_eta_is_sum_of_reciprocals():
    cfg = make_config(p_source=2.0, p_relay=2.0)  # gamma_s = 1, gamma_r = 2
    r = compute_rate_params(cfg)
    gamma_s, gamma_r = _gammas(cfg)
    assert gamma_s == pytest.approx(1.0)
    assert r.eta_relay_path == pytest.approx(1.0 / gamma_s + 1.0 / gamma_r)
    assert r.eta_relay_path == pytest.approx(1.5)


def test_df_eta_single_hop():
    cfg = make_config(scheme=Scheme.DF_NC, p_relay=2.0, p_source=2.0)
    r = compute_rate_params(cfg)
    assert r.eta_relay_path == pytest.approx(1.0 / 2.0)


def test_small_kappa_limit():
    cfg = make_config(p_source=1e-9, p_relay=1.0)
    assert _gammas(cfg)[0] == pytest.approx(cfg.p_source, rel=1e-6)


def test_bottleneck_rate_doubles_source_side():
    cfg = make_config(p_source=2.0, p_relay=2.0)  # gamma_s = 1, gamma_r = 2
    gamma_s, gamma_r = _gammas(cfg)
    assert bottleneck_rate(cfg) == pytest.approx(2.0 / gamma_s + 1.0 / gamma_r)
    dfc = make_config(scheme=Scheme.DF_NC, p_relay=2.0, p_source=2.0)
    assert bottleneck_rate(dfc) == pytest.approx(1.0)


# -- selection ------------------------------------------------------------------


def select_best_relay(s1, s2):
    return select_relay(s1, s2)[0]


def test_single_candidate():
    assert select_best_relay([0.0], [0.0]) == 0


def test_maxmin_example():
    # mins are [3, 1] -> argmax 0, bottleneck 3
    assert select_best_relay([3.0, 10.0], [5.0, 1.0]) == 0
    assert select_relay([3.0, 10.0], [5.0, 1.0])[1] == 3.0


def test_tie_breaks_low_index():
    assert select_best_relay([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 0


def test_empty_rejected():
    with pytest.raises(ValueError):
        select_best_relay([], [])


def test_length_mismatch_rejected():
    with pytest.raises(ValueError):
        select_best_relay([1.0, 2.0], [1.0])


@settings(max_examples=200)
@given(
    snrs=st.lists(
        st.tuples(st.integers(0, 10**6), st.integers(0, 10**6)),
        min_size=1,
        max_size=12,
    ),
    scale=st.floats(0.1, 10),
    shift=st.floats(0, 5),
)
def test_selection_invariant_under_increasing_transform(snrs, scale, shift):
    # coarse grid keeps distinct values distinct through the float transform
    s1 = [a / 8.0 for a, _ in snrs]
    s2 = [b / 8.0 for _, b in snrs]
    base = select_best_relay(s1, s2)
    t1 = [scale * x + shift for x in s1]
    t2 = [scale * x + shift for x in s2]
    assert select_best_relay(t1, t2) == base


# -- power mapping ----------------------------------------------------------------


def test_equal_split_at_unit_kappa():
    # the budget is split equally: p_source / p_relay == 1
    cell = _Cell(Scheme.ANC, 2, 2, 10.0 * math.log10(9.0), "")
    split = _cell_powers(cell)
    assert split.p_source == pytest.approx(3.0)
    assert split.p_relay == pytest.approx(3.0)
    assert 2 * split.p_source + split.p_relay == pytest.approx(9.0)


def test_snr_axis_mapping():
    cell = _Cell(Scheme.ANC, 2, 2, 10.0, "")
    split = _cell_powers(cell)
    assert 2 * split.p_source + split.p_relay == pytest.approx(10.0)
    assert split.p_source == pytest.approx(split.p_relay)
