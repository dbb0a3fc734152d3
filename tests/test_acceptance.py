"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line with the measured quantities.

Two criteria assert orderings that the faithful symbol-level simulation
provably cannot reproduce (see the companion tests that validate the same
machinery against exact references):

* criterion 6, Monte Carlo half: joint two-user detection gives the analog
  scheme the edge over decode-and-forward at every tested point, because the
  relay decodes through multiple-access interference and symbol pairs sharing
  a network-coded combination collapse to diversity-1 slot-1 evidence.  The
  analytic-chain ordering (criterion 6a) does hold.
* criterion 7, analog-scheme agreement at 20-30 dB: the rate-sum exponential
  surrogate differs from the exact amplified-path law by 79/22/5.4 standard
  errors at 20/25/30 dB (1e6 trials, threshold 1.0); agreement within 3
  standard errors begins near 35 dB.  The simulator matches the exact law
  everywhere (criterion 7a).
"""

import functools
import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from oracles import (
    anc_single_user_ser,
    best_pdf,
    brute_force_allocation,
    config_at_snr_db,
    direct_link_ser,
    draw_stage2,
    exact_best_bottleneck_cdf,
    gain_batch,
    rayleigh_bpsk_ser,
    ser_power_gradient,
    single_link_ser,
    stationarity_residual,
)
from marcsim.analytic import (
    BestRelayDistribution,
    best_cdf,
    best_mgf,
    bottleneck_rate,
    integral_I,
    ser_closed_form,
    ser_inputs,
    ser_quadrature,
)
from marcsim.discrepancy import collect_all
from marcsim.experiment import ExperimentSpec, run_experiment
from marcsim.model import Scheme, SystemConfig
from marcsim.montecarlo import BATCH_SIZE, estimate_ser, run_batch, sample_best_snr, sample_gains
from marcsim.power import (
    PowerSplit,
    numeric_allocation,
    ser_for_powers,
)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")


def base_config(scheme, num_relays, mod_order=2):
    return SystemConfig(
        num_relays=num_relays, p_source=1.0, p_relay=1.0, mod_order=mod_order, scheme=scheme
    )


def binom_se(p, n):
    return math.sqrt(max(p * (1.0 - p), 1e-300) / n)


# -- criterion 1 ----------------------------------------------------------------


def test_criterion_1_branch_integral():
    t0 = time.perf_counter()
    worst = 0.0
    for c in (1e-2, 1e-1, 1.0, 10.0, 1e2):
        ref, _ = quad(
            lambda t: math.sin(t) ** 2 / (math.sin(t) ** 2 + c), 0.0, math.pi / 2, epsabs=1e-13
        )
        worst = max(worst, abs(integral_I(c) - ref / math.pi))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 1.0
    report(1, ok, f"closed form vs quadrature max |diff| = {worst:.2e} in {elapsed:.2f}s")
    assert worst <= 1e-9
    assert elapsed < 1.0


# -- criterion 2 ----------------------------------------------------------------


def test_criterion_2_order_statistics_chain():
    t0 = time.perf_counter()
    worst_norm = worst_deriv = worst_mgf = 0.0
    h = 1e-6
    for n in (1, 2, 5, 10):
        for eta in (0.5, 1.0, 2.0):
            dist = BestRelayDistribution(n, eta)
            total, _ = quad(lambda g: best_pdf(dist, g), 0.0, np.inf, epsabs=1e-12)
            worst_norm = max(worst_norm, abs(total - 1.0))
            for g in (0.1, 1.0, 5.0):
                num = (best_cdf(dist, g + h) - best_cdf(dist, g - h)) / (2 * h)
                ref = best_pdf(dist, g)
                worst_deriv = max(worst_deriv, abs(num - ref) / ref)
            for s in (0.0, 0.3, 1.0, 4.0):
                ref, _ = quad(
                    lambda g: math.exp(-s * g) * best_pdf(dist, g), 0.0, np.inf, epsabs=1e-12
                )
                worst_mgf = max(worst_mgf, abs(best_mgf(dist, s) - ref))
    elapsed = time.perf_counter() - t0
    ok = worst_norm <= 1e-8 and worst_deriv <= 1e-5 and worst_mgf <= 1e-8 and elapsed < 10
    report(
        2,
        ok,
        f"pdf normalization |diff| = {worst_norm:.2e}, cdf' vs pdf rel = {worst_deriv:.2e}, "
        f"mgf vs quadrature = {worst_mgf:.2e} in {elapsed:.1f}s",
    )
    assert worst_norm <= 1e-8
    assert worst_deriv <= 1e-5
    assert worst_mgf <= 1e-8
    assert elapsed < 10


# -- criterion 3 ----------------------------------------------------------------


def test_criterion_3_monte_carlo_calibration():
    trials = 10**6
    worst_z = 0.0
    for snr_db in range(0, 21):
        est = single_link_ser(float(snr_db), trials, seed=300 + snr_db)
        ref = rayleigh_bpsk_ser(10.0 ** (snr_db / 10.0))
        z = abs(est.ser - ref) / binom_se(ref, trials)
        worst_z = max(worst_z, z)
    ok = worst_z < 3.0
    report(3, ok, f"single-link BPSK vs closed form, worst |z| = {worst_z:.2f} over 0..20 dB")
    assert worst_z < 3.0


@pytest.mark.parametrize("num_relays", [1, 3])
@pytest.mark.parametrize("mod_order", [2, 8])
@pytest.mark.parametrize("scheme", [Scheme.ANC, Scheme.DF_NC])
def test_criterion_3b_kernel_matches_exact_single_user_laws(scheme, mod_order, num_relays):
    # the package's own kernel against exact SER laws: with g2 = 0 on every
    # relay (every relay ties, so relay 0 is selected) and h_s2_d = 0,
    # source 2 is silent, and run_batch's source-1 flags follow ANC's
    # single-user MRC law, or under DF-NC the direct link's Rayleigh law
    batches, worst_z = 16, 0.0
    for snr_db in (5.0, 15.0):
        config = config_at_snr_db(base_config(scheme, num_relays, mod_order), snr_db)
        errors = 0
        for b in range(batches):
            rng = np.random.default_rng([mod_order, num_relays, int(snr_db), b])
            gains = sample_gains(config, rng, BATCH_SIZE)
            gains = gain_batch(config, gains.g_s1_r, np.zeros_like(gains.g_s1_r), gains.g_r_d)
            stage2 = draw_stage2(config, BATCH_SIZE, rng)
            stage2 = stage2._replace(h_s2_d=np.zeros_like(stage2.h_s2_d))
            e1, _, sel, _ = run_batch(config, gains, stage2)
            assert not sel.any()
            errors += int(np.count_nonzero(e1))
        trials = batches * BATCH_SIZE
        ref = anc_single_user_ser(config) if scheme is Scheme.ANC else direct_link_ser(config)
        worst_z = max(worst_z, abs(errors / trials - ref) / binom_se(ref, trials))
    ok = worst_z < 4.0
    report(
        "3b", ok,
        f"{scheme.value} {mod_order}-PSK N={num_relays}, silent source 2: run_batch vs exact "
        f"single-user law, worst |z| = {worst_z:.2f} at 5 and 15 dB ({trials} trials each)",
    )
    assert worst_z < 4.0


# -- criterion 4 ----------------------------------------------------------------


def test_criterion_4_selection_cdf():
    worst = 0.0
    for n in (1, 3, 5):
        cfg = config_at_snr_db(base_config(Scheme.DF_NC, n), 10.0)
        samples = sample_best_snr(cfg, 10**6, seed=400 + n)
        dist = BestRelayDistribution(n, bottleneck_rate(cfg))
        stat = kstest(samples, lambda x: best_cdf(dist, x)).statistic
        worst = max(worst, stat)
    ok = worst < 0.002
    report(4, ok, f"DF best-relay SNR vs order-statistics CDF, worst KS = {worst:.5f}")
    assert worst < 0.002


# -- criterion 5 ----------------------------------------------------------------


def test_criterion_5_ser_decreasing_in_relay_count():
    # analytic chain, strictly decreasing in N at 20 SNR points
    strict = True
    for m in (2, 8):
        for snr_db in np.linspace(0.0, 25.0, 20):
            cfg = config_at_snr_db(base_config(Scheme.ANC, 1, m), float(snr_db))
            # one config's rates, at every N
            dist, eta_direct = ser_inputs(cfg)
            vals = [ser_quadrature(BestRelayDistribution(n, dist.eta), eta_direct, m) for n in range(1, 6)]
            strict = strict and all(b < a for a, b in zip(vals, vals[1:]))
    # Monte Carlo confirmation under confidence-interval overlap rules
    ci_ok = True
    for m in (2, 8):
        for snr_db in (5.0, 10.0):
            ests = [
                estimate_ser(
                    config_at_snr_db(base_config(Scheme.ANC, n, m), snr_db), 300_000, seed=500 + n
                )[0]
                for n in range(1, 6)
            ]
            for a, b in zip(ests, ests[1:]):
                ci_ok = ci_ok and (b.ser - b.ci_halfwidth) <= (a.ser + a.ci_halfwidth)
    ok = strict and ci_ok
    report(5, ok, f"analytic strictly decreasing in N: {strict}; Monte Carlo CI-overlap: {ci_ok}")
    assert strict
    assert ci_ok


# -- criterion 6 ----------------------------------------------------------------

C6_GRID = [(n, snr) for n in (1, 2, 5, 10) for snr in (5.0, 10.0, 15.0)]


def test_criterion_6a_analytic_scheme_ordering():
    ok = True
    for n, snr_db in C6_GRID:
        sers = {}
        for scheme in (Scheme.ANC, Scheme.DF_NC):
            cfg = config_at_snr_db(base_config(scheme, n), snr_db)
            sers[scheme] = ser_quadrature(*ser_inputs(cfg), 2)
        ok = ok and sers[Scheme.DF_NC] < sers[Scheme.ANC]
    report(6, ok, "analytic-chain ordering DF < ANC at every grid point (companion)")
    assert ok


def test_criterion_6b_monte_carlo_scheme_ordering():
    trials = 10**6
    rows = []
    holds = True
    for n, snr_db in C6_GRID:
        anc_cfg = config_at_snr_db(base_config(Scheme.ANC, n), snr_db)
        df_cfg = config_at_snr_db(base_config(Scheme.DF_NC, n), snr_db)
        anc, _ = estimate_ser(anc_cfg, trials, seed=600 + n, max_errors=None)
        df, _ = estimate_ser(df_cfg, trials, seed=650 + n, max_errors=None)
        rows.append((n, snr_db, anc.ser, df.ser, df.ser < anc.ser))
        holds = holds and df.ser < anc.ser
    table = "\n".join(
        f"    N={n:2d} {snr:4.1f} dB: ANC={a:.6f} DF={d:.6f} DF<ANC={flag}"
        for n, snr, a, d, flag in rows
    )
    report(6, holds, "symbol-level Monte Carlo ordering DF < ANC at 1e6 trials\n" + table)
    assert holds, (
        "the simulated DF-NC SER sits above ANC at every tested point; the relay "
        "decodes the pair through multiple-access interference and hypothesis pairs "
        "with equal network-coded sums are separable only through the slot-1 direct "
        "links, which caps the simulated DF diversity regardless of N:\n" + table
    )


# -- criterion 7 ----------------------------------------------------------------


def _empirical_outage(cfg, snr_db, gamma_th, trials, seed):
    c = config_at_snr_db(cfg, snr_db)
    return float(np.mean(sample_best_snr(c, trials, seed) < gamma_th)), c


def test_criterion_7a_outage_trends_and_exact_agreement():
    gamma_th = 1.0
    # strictly decreasing in N and SNR for both schemes (points chosen away
    # from the saturated regime where every draw sits below the threshold)
    trend_snrs = (5.0, 10.0, 15.0)
    trend_ok = True
    for scheme in (Scheme.ANC, Scheme.DF_NC):
        grid = {}
        for n in (1, 2, 5, 10):
            for snr in trend_snrs:
                grid[n, snr], _ = _empirical_outage(
                    base_config(scheme, n), snr, gamma_th, 400_000, seed=700 + n
                )
        for snr in trend_snrs:
            seq = [grid[n, snr] for n in (1, 2, 5, 10)]
            trend_ok = trend_ok and all(b < a for a, b in zip(seq, seq[1:]))
        for n in (1, 2, 5, 10):
            seq = [grid[n, snr] for snr in trend_snrs]
            trend_ok = trend_ok and all(b < a for a, b in zip(seq, seq[1:]))

    # DF: the order-statistics CDF is exact at any SNR
    df_worst = 0.0
    trials = 10**6
    for n in (1, 2, 5):
        for snr in (0.0, 10.0, 20.0, 30.0):
            emp, cfg = _empirical_outage(
                base_config(Scheme.DF_NC, n), snr, gamma_th, trials, seed=720 + n
            )
            ref = best_cdf(BestRelayDistribution(n, bottleneck_rate(cfg)), gamma_th)
            df_worst = max(df_worst, abs(emp - ref) / binom_se(ref, trials))

    # ANC: the simulator must match the exact amplified-path law everywhere;
    # the exponential surrogate's own error is reported per point
    anc_worst = 0.0
    gaps = []
    for n in (1, 2):
        for snr in (20.0, 25.0, 30.0, 35.0, 40.0):
            emp, cfg = _empirical_outage(
                base_config(Scheme.ANC, n), snr, gamma_th, trials, seed=740 + n
            )
            exact = float(exact_best_bottleneck_cdf(cfg, gamma_th))
            model = best_cdf(BestRelayDistribution(n, bottleneck_rate(cfg)), gamma_th)
            se = binom_se(exact, trials)
            anc_worst = max(anc_worst, abs(emp - exact) / se)
            gaps.append((n, snr, abs(model - exact) / se))
    gap_txt = ", ".join(f"N={n} {s:.0f}dB:{g:.1f}se" for n, s, g in gaps)
    ok = trend_ok and df_worst < 3.0 and anc_worst < 3.0
    report(
        7,
        ok,
        f"trends strictly decreasing: {trend_ok}; DF vs order-statistics worst |z| = "
        f"{df_worst:.2f}; ANC vs exact law worst |z| = {anc_worst:.2f} "
        f"(exponential-surrogate model error per point: {gap_txt})",
    )
    assert trend_ok
    assert df_worst < 3.0
    assert anc_worst < 3.0


def test_criterion_7b_anc_exponential_model_domain():
    # literal reading: agreement with the exponential-rate CDF within 3
    # standard errors for the analog scheme from 20 dB upward
    gamma_th = 1.0
    trials = 10**6
    rows = []
    holds = True
    for n in (1, 2):
        for snr in (20.0, 25.0, 30.0, 35.0, 40.0):
            emp, cfg = _empirical_outage(
                base_config(Scheme.ANC, n), snr, gamma_th, trials, seed=760 + n
            )
            model = best_cdf(BestRelayDistribution(n, bottleneck_rate(cfg)), gamma_th)
            z = abs(emp - model) / binom_se(model, trials)
            rows.append((n, snr, emp, model, z))
            holds = holds and z < 3.0
    table = "\n".join(
        f"    N={n} {snr:4.1f} dB: empirical={e:.6f} exponential-model={m:.6f} |z|={z:.1f}"
        for n, snr, e, m, z in rows
    )
    report(7, holds, "ANC outage vs exponential surrogate from 20 dB (literal)\n" + table)
    assert holds, (
        "the exponential surrogate for the amplified path carries an intrinsic "
        "lower-tail approximation error that exceeds 3 standard errors at 1e6 "
        "trials until roughly 35 dB; the simulator itself matches the exact law "
        "(see criterion 7a):\n" + table
    )


# -- criterion 8 ----------------------------------------------------------------


def test_criterion_8_power_allocation():
    snrs = (0.0, 5.0, 10.0, 15.0, 20.0)
    improvements = []
    worst_resid = 0.0
    ratios = []
    for n in (1, 2, 3, 4):
        power_obj = functools.partial(ser_for_powers, num_relays=n, mod_order=2, scheme=Scheme.ANC)
        for snr in snrs:
            p_total = 10.0 ** (snr / 10.0)
            opt = numeric_allocation(p_total, power_obj)
            v_opt = power_obj(opt.p_source, opt.p_relay)
            eq = PowerSplit.equal(p_total)
            v_eq = power_obj(eq.p_source, eq.p_relay)
            assert v_opt <= v_eq
            improvements.append(v_opt < v_eq)
            g_s, g_r = ser_power_gradient(opt, power_obj)
            resid = stationarity_residual(opt, power_obj) / max(abs(g_s), abs(g_r))
            worst_resid = max(worst_resid, resid)
            ratios.append(opt.p_relay / (2.0 * opt.p_source))
    strict_frac = sum(improvements) / len(improvements)

    grid_ok = True
    for n in (1, 2, 3, 4):
        power_obj = functools.partial(ser_for_powers, num_relays=n, mod_order=2, scheme=Scheme.ANC)
        opt = numeric_allocation(10.0, power_obj)
        ref, cell = brute_force_allocation(10.0, num_relays=n, grid_points=10_000)
        grid_ok = grid_ok and abs(opt.p_source - ref) <= cell

    ok = strict_frac >= 0.8 and grid_ok and worst_resid < 1e-4
    report(
        8,
        ok,
        f"optimum <= equal split at all 20 points, strict at {100 * strict_frac:.0f}%; "
        f"10^4-grid agreement: {grid_ok}; worst relative stationarity residual = "
        f"{worst_resid:.1e}; relay-to-source power ratio p_r/(2 p_s) in "
        f"[{min(ratios):.3f}, {max(ratios):.3f}] (reported, not asserted)",
    )
    assert strict_frac >= 0.8
    assert grid_ok
    assert worst_resid < 1e-4


# -- criterion 9 ----------------------------------------------------------------


def test_criterion_9_discrepancy_ledger(tmp_path):
    records = {rec.name: rec for rec in collect_all()}
    expected = {"mgf_shared_pole", "ser_additive_closed_form", "power_allocation_closed_form"}
    names_ok = set(records) == expected
    magnitudes_ok = (
        records["mgf_shared_pole"].magnitude > 0.9
        and records["ser_additive_closed_form"].magnitude > 1e-3
        and records["power_allocation_closed_form"].magnitude > 1.0
    )
    # the printed forms never stand in for their oracles
    dist = BestRelayDistribution(2, 1.0)
    additive = records["ser_additive_closed_form"]
    oracle_ok = additive.oracle == pytest.approx(
        ser_quadrature(dist, 0.5, 2), abs=1e-12
    ) and ser_closed_form(dist, 0.5) != pytest.approx(additive.oracle, abs=1e-6)
    # every experiment run writes the records into its sidecar
    spec = ExperimentSpec(
        figure="custom",
        snr_points_db=[10.0],
        relay_counts=[1],
        schemes=[Scheme.DF_NC],
        trials=2000,
        output_path=str(tmp_path / "ledger.csv"),
    )
    run_experiment(spec)
    meta = open(spec.output_path + ".meta").read()
    sidecar_ok = all(f"discrepancy.{name}=" in meta for name in expected)
    ok = names_ok and magnitudes_ok and oracle_ok and sidecar_ok
    report(
        9,
        ok,
        "records "
        + ", ".join(f"{r.name}: |diff|={r.magnitude:.3e}" for r in records.values())
        + f"; quadrature oracle intact: {oracle_ok}; sidecar carries records: {sidecar_ok}",
    )
    assert names_ok and magnitudes_ok and oracle_ok and sidecar_ok


# -- criterion 10 -----------------------------------------------------------------


def test_criterion_10_reproducibility(tmp_path):
    def fig2_spec(path):
        return ExperimentSpec(
            figure="fig2",
            snr_points_db=[0.0, 10.0],
            relay_counts=[1, 2],
            mod_orders=[2],
            trials=1500,
            seed=42,
            output_path=str(path),
        )

    run_experiment(fig2_spec(tmp_path / "a.csv"))
    run_experiment(fig2_spec(tmp_path / "b.csv"))
    same_seed = (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    run_experiment(fig2_spec(tmp_path / "w2.csv"), workers=2)
    same_workers = (tmp_path / "a.csv").read_bytes() == (tmp_path / "w2.csv").read_bytes()
    ok = same_seed and same_workers
    report(10, ok, f"same seed byte-identical: {same_seed}; worker-count invariant: {same_workers}")
    assert same_seed
    assert same_workers
