import functools
import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from oracles import best_pdf, per_node_ser_quadrature
from marcsim import analytic
from marcsim.analytic import (
    BestRelayDistribution,
    QuadratureConvergenceError,
    best_cdf,
    best_mgf,
    integral_I,
    mpsk_g,
    ser_closed_form,
    ser_quadrature,
)
from marcsim.discrepancy import collect_all, mgf_pole_discrepancy
from marcsim.model import Scheme, SystemConfig, compute_rate_params
from marcsim.montecarlo import estimate_outage, estimate_ser
from marcsim.power import PowerSplit, numeric_allocation, ser_for_powers

GRID_N = [1, 2, 5, 10]
GRID_ETA = [0.5, 1.0, 2.0]


# -- CDF -----------------------------------------------------------------------


def test_cdf_at_zero():
    for n in GRID_N:
        assert best_cdf(BestRelayDistribution(n, 1.3), 0.0) == 0.0


def test_cdf_single_relay_value():
    assert best_cdf(BestRelayDistribution(1, 1.0), 1.0) == pytest.approx(
        0.6321205588285577, abs=1e-12
    )


def test_cdf_three_relays_value():
    # (1 - e^-1)^3, cross-checked against the empirical CDF of max of 3 draws
    dist = BestRelayDistribution(3, 1.0)
    assert best_cdf(dist, 1.0) == pytest.approx(0.25258045782764715, abs=1e-12)
    rng = np.random.default_rng(11)
    m = rng.exponential(1.0, (10**6, 3)).max(axis=1)
    emp = (m <= 1.0).mean()
    se = math.sqrt(0.2526 * (1 - 0.2526) / 10**6)
    assert abs(emp - 0.25258045782764715) < 4 * se


def test_cdf_rejects_negative_gamma():
    with pytest.raises(ValueError):
        best_cdf(BestRelayDistribution(2, 1.0), -0.1)


def test_series_rejects_large_order():
    dist = BestRelayDistribution(65, 1.0)
    with pytest.raises(ValueError, match="unstable"):
        ser_closed_form(dist, 1.0)
    with pytest.raises(ValueError, match="unstable"):
        best_mgf(dist, 1.0)
    # product form carries no such limit
    assert 0.0 < best_cdf(BestRelayDistribution(200, 1.0), 5.0) < 1.0


@settings(max_examples=200)
@given(
    n=st.integers(1, 30),
    eta=st.floats(1e-3, 1e3),
    g1=st.floats(0, 50),
    dg=st.floats(0, 50),
)
def test_cdf_monotone_and_bounded(n, eta, g1, dg):
    dist = BestRelayDistribution(n, eta)
    a, b = best_cdf(dist, g1), best_cdf(dist, g1 + dg)
    assert 0.0 <= a <= b <= 1.0  # floats saturate at 1.0 for huge eta*gamma
    if eta * (g1 + dg) < 30:
        assert b < 1.0


@given(n=st.integers(1, 30), eta=st.floats(1e-2, 1e2), gamma=st.floats(1e-3, 50))
def test_more_relays_stochastically_larger(n, eta, gamma):
    small = best_cdf(BestRelayDistribution(n, eta), gamma)
    large = best_cdf(BestRelayDistribution(n + 1, eta), gamma)
    assert large <= small + 1e-15


# -- PDF -----------------------------------------------------------------------


def test_pdf_exponential_origin():
    assert best_pdf(BestRelayDistribution(1, 2.0), 0.0) == pytest.approx(2.0)


def test_pdf_two_relay_value():
    assert best_pdf(BestRelayDistribution(2, 1.0), math.log(2.0)) == pytest.approx(0.5)


def test_pdf_normalizes():
    for n in GRID_N:
        for eta in GRID_ETA:
            dist = BestRelayDistribution(n, eta)
            total, _ = quad(lambda g: best_pdf(dist, g), 0.0, np.inf, epsabs=1e-12)
            assert abs(total - 1.0) < 1e-8


def test_pdf_is_cdf_derivative():
    h = 1e-6
    for n in GRID_N:
        for eta in GRID_ETA:
            dist = BestRelayDistribution(n, eta)
            for g in (0.1, 1.0, 5.0):
                num = (best_cdf(dist, g + h) - best_cdf(dist, g - h)) / (2 * h)
                ref = best_pdf(dist, g)
                assert num == pytest.approx(ref, rel=1e-5)


# -- MGF -----------------------------------------------------------------------


def test_mgf_is_one_at_origin():
    for n in GRID_N:
        for eta in GRID_ETA:
            assert best_mgf(BestRelayDistribution(n, eta), 0.0) == pytest.approx(1.0, abs=1e-12)


def test_mgf_single_relay():
    assert best_mgf(BestRelayDistribution(1, 1.0), 1.0) == pytest.approx(0.5)


def test_mgf_two_relay_value():
    assert best_mgf(BestRelayDistribution(2, 1.0), 1.0) == pytest.approx(1.0 / 3.0)


def test_mgf_matches_quadrature_of_pdf():
    for n in GRID_N:
        for eta in GRID_ETA:
            dist = BestRelayDistribution(n, eta)
            for s in (0.0, 0.3, 1.0, 4.0):
                ref, _ = quad(
                    lambda g: math.exp(-s * g) * best_pdf(dist, g), 0.0, np.inf, epsabs=1e-12
                )
                assert abs(best_mgf(dist, s) - ref) < 1e-8


def test_shared_pole_variant_is_not_an_mgf():
    assert mgf_pole_discrepancy(num_relays=2).printed == pytest.approx(0.0, abs=1e-12)
    # N=1 has a single pole, so the variant agrees with best_mgf on s in [0, 10]
    assert mgf_pole_discrepancy(num_relays=1).magnitude == pytest.approx(0.0, abs=1e-12)
    assert best_mgf(BestRelayDistribution(1, 1.0), 1.0) == pytest.approx(0.5)


def test_mgf_rejects_negative_s():
    with pytest.raises(ValueError):
        best_mgf(BestRelayDistribution(2, 1.0), -0.5)


@pytest.mark.parametrize(
    "fn",
    [
        lambda x: best_mgf(BestRelayDistribution(2, 1.0), x),
        integral_I,
        lambda x: best_cdf(BestRelayDistribution(2, 1.0), x),
    ],
    ids=["best_mgf", "integral_I", "best_cdf"],
)
def test_analytic_inputs_reject_nan(fn):
    with pytest.raises(ValueError, match="must be nonnegative"):
        fn(math.nan)


def test_mgf_decreasing_and_convex_in_s():
    s = np.linspace(0.0, 12.0, 121)
    for n in (1, 3, 8):
        dist = BestRelayDistribution(n, 0.8)
        v = np.array([best_mgf(dist, x) for x in s.tolist()])
        assert np.all(np.diff(v) < 0)
        assert np.all(np.diff(v, 2) > -1e-12)
        assert np.all((v > 0) & (v <= 1))


# -- the branch integral --------------------------------------------------------


def quad_I(c):
    v, _ = quad(lambda t: math.sin(t) ** 2 / (math.sin(t) ** 2 + c), 0.0, math.pi / 2, epsabs=1e-13)
    return v / math.pi


def test_integral_I_values():
    assert integral_I(0.0) == pytest.approx(0.5)
    assert integral_I(1.0) == pytest.approx(0.14644660940672627, abs=1e-12)
    assert integral_I(100.0) == pytest.approx(0.0024814048949576475, abs=1e-12)


def test_integral_I_matches_quadrature():
    for c in (1e-2, 1e-1, 1.0, 10.0, 100.0):
        assert abs(integral_I(c) - quad_I(c)) < 1e-9


@given(c=st.floats(0, 1e4), dc=st.floats(0, 1e4))
def test_integral_I_bounded_and_decreasing(c, dc):
    a, b = integral_I(c), integral_I(c + dc)
    assert 0.0 <= b <= a <= 0.5


# -- SER ------------------------------------------------------------------------


def test_ser_vanishes_at_high_snr():
    # small rate = large mean SNR
    dist = BestRelayDistribution(1, 1e-6)
    assert ser_quadrature(dist, 1e-6, 2) <= 1e-5


# a direct link of rate float max has zero mean SNR: its MGF factor
# eta/(s + eta) is exactly 1.0 at every quadrature node
NO_DIRECT_LINK = sys.float_info.max


def test_ser_single_path_reduces_to_integral_I():
    dist = BestRelayDistribution(1, 1.0)
    assert ser_quadrature(dist, NO_DIRECT_LINK, 2) == pytest.approx(integral_I(1.0), abs=1e-10)


def test_direct_branch_gives_diversity_gain():
    dist = BestRelayDistribution(1, 1.0)
    assert ser_quadrature(dist, 1.0, 2) < ser_quadrature(dist, NO_DIRECT_LINK, 2)


def test_ser_bounded_by_guessing():
    for m in (2, 4, 8):
        v = ser_quadrature(BestRelayDistribution(2, 5.0), 5.0, m)
        assert 0.0 < v < (m - 1) / m
        # rate -> infinity (mean SNR -> 0) approaches the guessing bound
        v_bad = ser_quadrature(BestRelayDistribution(2, 1e9), 1e9, m)
        assert v_bad == pytest.approx((m - 1) / m, rel=1e-3)


def test_ser_decreasing_in_relay_count():
    for m in (2, 8):
        vals = [ser_quadrature(BestRelayDistribution(n, 1.0), 1.0, m) for n in range(1, 7)]
        assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.mark.parametrize("direct_eta", [0.0, -1.0, math.nan, math.inf])
def test_ser_rejects_bad_direct_rate(direct_eta):
    dist = BestRelayDistribution(2, 1.0)
    with pytest.raises(ValueError, match="direct_eta"):
        ser_quadrature(dist, direct_eta, 2)
    with pytest.raises(ValueError, match="direct_eta"):
        ser_closed_form(dist, direct_eta)


def test_mpsk_g():
    assert mpsk_g(2) == pytest.approx(1.0)
    assert mpsk_g(4) == pytest.approx(0.5)
    assert mpsk_g(8) == pytest.approx(math.sin(math.pi / 8) ** 2)


def test_unreachable_tolerance_raises_with_achieved_error():
    dist = BestRelayDistribution(2, 1.0)
    with pytest.raises(QuadratureConvergenceError) as exc:
        ser_quadrature(dist, 1.0, 2, tol=1e-20)
    assert exc.value.achieved > 1e-20
    assert exc.value.requested == 1e-20


# -- MGF terms built once per call ------------------------------------------------

_BIT_RATES = [(2.0, 5.0), (0.5, 1.0), (0.1, 0.2), (0.02, 0.05), (1e-3, 1e-2)]  # (eta, direct eta)
# N = 40 and 64 never converge and cost the reference up to 0.7 s a call, so
# those orders take one rate pair per M
_BIT_CASES = [(n, m, *r) for n in (1, 2, 3, 5, 10, 25) for m in (2, 4, 8, 16) for r in _BIT_RATES] + [
    (n, m, *r) for n in (40, 64) for m, r in zip((2, 4, 8, 16), _BIT_RATES[1:])
]


def _quadrature_outcome(ser_fn, dist, direct_eta, mod_order):
    try:
        return ser_fn(dist, direct_eta, mod_order)
    except QuadratureConvergenceError as exc:
        return ("no convergence", exc.achieved)


@pytest.mark.filterwarnings("ignore::scipy.integrate.IntegrationWarning")
def test_ser_quadrature_matches_per_node_reference_bit_for_bit():
    cases = [(BestRelayDistribution(n, eta), direct_eta, m) for n, m, eta, direct_eta in _BIT_CASES]
    # DF N=30 at 10 dB, a spec that fails to converge through the CLI
    split = PowerSplit.equal(10.0)
    rates = compute_rate_params(SystemConfig(30, split.p_source, split.p_relay, scheme=Scheme.DF_NC))
    cases.append((BestRelayDistribution(30, rates.eta_relay_path), rates.eta_direct, 2))
    got = [_quadrature_outcome(ser_quadrature, *case) for case in cases]
    want = [_quadrature_outcome(per_node_ser_quadrature, *case) for case in cases]
    assert got == want  # ==, not approx: the same float operations in the same order
    assert isinstance(want[-1], tuple)
    assert sum(isinstance(w, float) for w in want) > 100


def test_ser_quadrature_derives_each_coefficient_once(monkeypatch):
    # one binomial per series term per call, not per quadrature node
    calls = []
    binom = analytic._float_binom
    monkeypatch.setattr(analytic, "_float_binom", lambda n, k: calls.append(k) or binom(n, k))
    ser_quadrature(BestRelayDistribution(5, 1.0), 1.0, 2)
    assert sorted(calls) == [1, 2, 3, 4, 5]


# -- additive closed form ---------------------------------------------------------


def test_closed_form_single_relay_is_sum_of_branch_integrals():
    # eta_relay = eta_direct = 1 gives c1 = c2 = 1
    value = ser_closed_form(BestRelayDistribution(1, 1.0), 1.0)
    assert value == pytest.approx(2 * integral_I(1.0), abs=1e-12)
    assert value == pytest.approx(0.2928932188134524, abs=1e-12)


def test_closed_form_two_relay_as_written():
    # the alternating binomial sum collapses to a single (I(c1)+I(c2)) term
    dist = BestRelayDistribution(2, 1.0)
    value = ser_closed_form(dist, 1.0)
    assert value == pytest.approx(0.2928932188134524, abs=1e-12)
    exact = ser_quadrature(dist, 1.0, 2)
    assert abs(value - exact) > 0.01  # never trusted as the oracle


# -- outage -----------------------------------------------------------------------


def test_outage_at_zero_threshold():
    assert best_cdf(BestRelayDistribution(3, 2.0), 0.0) == 0.0


def test_outage_two_relay_value():
    assert best_cdf(BestRelayDistribution(2, 1.0), 1.0) == pytest.approx(
        0.39957640089372803, abs=1e-12
    )


def test_outage_saturates():
    assert best_cdf(BestRelayDistribution(2, 1.0), 1e6) == pytest.approx(1.0)


# -- pinned bits ------------------------------------------------------------------

# Recorded at commit 545a393.  The SER chain's float path (series order, operation
# order, scalar vs array arithmetic) fixes these bits; a change to it must re-record
# them here and the analytic columns of perfbench/reference/ together.
PINNED_SER = [  # (scheme, M, N, snr_db at the equal split, ser_quadrature)
    (Scheme.ANC, 2, 1, 10.0, 0.039622127546869425),
    (Scheme.ANC, 8, 3, 15.0, 0.10927726347116598),
    (Scheme.ANC, 16, 10, 5.0, 0.7335413058894361),
    (Scheme.ANC, 2, 3, 20.0, 2.1863194213668528e-05),
    (Scheme.ANC, 8, 10, 10.0, 0.2544337746140619),
    (Scheme.ANC, 16, 1, 25.0, 0.062111587788946813),
    (Scheme.DF_NC, 2, 1, 10.0, 0.018226688214018204),
    (Scheme.DF_NC, 8, 3, 15.0, 0.030417927227220663),
    (Scheme.DF_NC, 16, 10, 5.0, 0.6077931613126194),
    (Scheme.DF_NC, 2, 3, 20.0, 1.0780434860258348e-06),
    (Scheme.DF_NC, 8, 10, 10.0, 0.08849745428742099),
    (Scheme.DF_NC, 16, 1, 25.0, 0.027513071218042345),
]
PINNED_P_SOURCE = {  # N: numeric_allocation(100.0, ANC BPSK).p_source
    1: 27.147056749424372,
    2: 26.45736356463444,
    3: 26.11932336234312,
    4: 25.91874798713691,
}
PINNED_LEDGER = [
    "discrepancy.mgf_shared_pole=printed:0.0,oracle:1.0,magnitude:1.0,"
    "note:sup over s in [0,10] at N=2; shared-pole value at s=0 is 0.0",
    "discrepancy.ser_additive_closed_form=printed:0.2381983189428632,"
    "oracle:0.022219628417975187,magnitude:0.215978690524888,"
    "note:N=2, eta_relay=1.0, eta_direct=0.5",
    "discrepancy.power_allocation_closed_form=printed:15.142760515360377,"
    "oracle:0.8044650338602886,magnitude:14.338295481500088,"
    "note:p_total=3.0, b=1.0; formula feasible: False (raw value outside (0, p_total/2))",
]


def test_analytic_bits_pinned():
    got, want = [], []
    for scheme, m, n, snr_db, expected in PINNED_SER:
        split = PowerSplit.equal(10.0 ** (snr_db / 10.0))
        rates = compute_rate_params(SystemConfig(n, split.p_source, split.p_relay, mod_order=m, scheme=scheme))
        got.append(ser_quadrature(BestRelayDistribution(n, rates.eta_relay_path), rates.eta_direct, m))
        want.append(expected)
    for n, expected in PINNED_P_SOURCE.items():
        objective = functools.partial(ser_for_powers, num_relays=n, mod_order=2, scheme=Scheme.ANC)
        got.append(numeric_allocation(100.0, objective).p_source)
        want.append(expected)
    got += [rec.as_kv() for rec in collect_all()]
    want += PINNED_LEDGER
    assert got == want


# Recorded at commit 1937342.  The random stream (draw order, batch seeding) and
# the float path of sampling, selection and detection fix these counts; a PR
# that declares a stream change re-records them here.
PINNED_MC_SER = [  # (scheme, M, N, seed, (errors, trials) of source 1, of source 2)
    (Scheme.ANC, 2, 1, 1, (794, 20000), (812, 20000)),
    (Scheme.ANC, 2, 3, 2, (522, 20000), (538, 20000)),
    (Scheme.ANC, 8, 1, 3, (9356, 20000), (9385, 20000)),
    (Scheme.ANC, 8, 3, 4, (8176, 20000), (8186, 20000)),
    (Scheme.DF_NC, 2, 1, 5, (1515, 20000), (1561, 20000)),
    (Scheme.DF_NC, 2, 3, 6, (985, 20000), (995, 20000)),
    (Scheme.DF_NC, 8, 1, 7, (11718, 20000), (11811, 20000)),
    (Scheme.DF_NC, 8, 3, 8, (11285, 20000), (11313, 20000)),
]
PINNED_MC_OUTAGE = {  # scheme: estimate_outage(N=3, gamma_th=1.0, 20,000 trials, seed 11)
    Scheme.ANC: 0.77885,
    Scheme.DF_NC: 0.09075,
}


def test_monte_carlo_bits_pinned():
    split = PowerSplit.equal(10.0)  # 10 dB
    got, want = [], []
    for scheme, m, n, seed, *expected in PINNED_MC_SER:
        cfg = SystemConfig(n, split.p_source, split.p_relay, mod_order=m, scheme=scheme)
        got.append([(est.errors, est.trials) for est in estimate_ser(cfg, 20_000, seed, max_errors=None)])
        want.append(expected)
    for scheme, expected in PINNED_MC_OUTAGE.items():
        cfg = SystemConfig(3, split.p_source, split.p_relay, scheme=scheme)
        got.append(estimate_outage(cfg, 1.0, 20_000, 11))
        want.append(expected)
    assert got == want
