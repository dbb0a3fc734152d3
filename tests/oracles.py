"""Independent reference computations used only by the test suite.

Everything here is derived from first principles (exact distributions,
brute-force detectors) and never calls the code paths it is used to check.
The brute-force detectors that are compared with ``montecarlo.run_batch``
reuse its sampling and relay selection, so that both decide on the same
draws; only the detection is under test.  The full-phase sampler draws every
link as a complex Gaussian, the way the package did before it drew gains
first; it is the reference for the gain-first sampler and feeds the
package's own selection and detection, so that only the sampling is under
test.
"""

import dataclasses
import math

import numpy as np
from scipy.integrate import quad
from scipy.special import k1

from marcsim.analytic import QuadratureConvergenceError
from marcsim.model import SystemConfig, Scheme, _gammas
from marcsim.montecarlo import (
    GainBatch,
    _Links,
    _batches,
    _complex_gaussian,
    _decide,
    _draw_stage2,
    _draw_symbols,
    _selected_links,
    _wilson_estimate,
    modulate,
    relay_normalization,
    relay_snrs,
    select_relay,
)
from marcsim.power import PowerSplit


def config_at_snr_db(config: SystemConfig, snr_db: float) -> SystemConfig:
    """``config`` at the equal split of the budget 10^(snr_db/10), the
    operating point that an SNR-axis value stands for (N0 = 1)."""
    split = PowerSplit.equal(10.0 ** (snr_db / 10.0))
    return dataclasses.replace(config, p_source=split.p_source, p_relay=split.p_relay)


def best_pdf(dist, gamma):
    """Density of the max of dist.num_relays i.i.d. exponentials of rate
    dist.eta: N*eta*exp(-eta*g)*(1-exp(-eta*g))^(N-1)."""
    g = np.asarray(gamma, dtype=float)
    n, eta = dist.num_relays, dist.eta
    out = n * eta * np.exp(-eta * g) * (-np.expm1(-eta * g)) ** (n - 1)
    return out if out.ndim else float(out)


def per_node_ser_quadrature(dist, direct_eta, mod_order, tol=1e-10):
    """``analytic.ser_quadrature`` as it was before the MGF terms were built
    once per call: every node re-derives the N binomial coefficients of the
    alternating MGF sum.  Same float operations in the same order, so the
    two agree bit for bit."""

    def binom(n, k):
        out = 1.0
        for i in range(1, k + 1):
            out *= (n - i + 1) / i
        return out

    def mgf(s):
        eta, out = dist.eta, 0.0
        for n in range(1, dist.num_relays + 1):
            coeff = binom(dist.num_relays, n) * n * (-1.0) ** (n - 1)
            out += coeff * eta / (s + n * eta)
        return out

    g = math.sin(math.pi / mod_order) ** 2
    upper = (mod_order - 1) * math.pi / mod_order

    def integrand(theta):
        sin2 = math.sin(theta) ** 2
        if sin2 == 0.0:
            return 0.0
        s = g / sin2
        return mgf(s) * (direct_eta / (s + direct_eta))

    value, abserr = quad(integrand, 0.0, upper, epsabs=tol, epsrel=1e-12, limit=200)
    value /= math.pi
    abserr /= math.pi
    if abserr > tol:
        raise QuadratureConvergenceError(abserr, tol)
    return value


def ser_power_gradient(split, ser_fn, rel_step=1e-5):
    """Central-difference partials of ``ser_fn(p_source, p_relay)`` w.r.t.
    each power component at ``split``."""
    h = rel_step * split.p_total
    ps, pr = split.p_source, split.p_relay
    g_s = (ser_fn(ps + h, pr) - ser_fn(ps - h, pr)) / (2.0 * h)
    g_r = (ser_fn(ps, pr + h) - ser_fn(ps, pr - h)) / (2.0 * h)
    return g_s, g_r


def stationarity_residual(split, ser_fn, rel_step=1e-5):
    """|dSER/dP_s - 2*dSER/dP_r|: eliminating the multiplier from the two
    first-order conditions of minimizing the SER subject to
    2*p_source + p_relay = p_total leaves exactly this combination, which
    vanishes at an interior optimum."""
    g_s, g_r = ser_power_gradient(split, ser_fn, rel_step)
    return abs(g_s - 2.0 * g_r)


def af_path_survival(x, rate_first_hop, rate_second_hop):
    """Exact survival of U*V/(U+V+1) for independent exponentials U, V.

    Closed form e^{-(l1+l2)x} * z*K1(z) with z = 2*sqrt(l1*l2*x*(x+1));
    verified against direct numerical integration.
    """
    x = np.asarray(x, dtype=float)
    l1, l2 = rate_first_hop, rate_second_hop
    z = 2.0 * np.sqrt(l1 * l2 * x * (x + 1.0))
    out = np.exp(-(l1 + l2) * x) * z * k1(z)
    return np.where(x == 0.0, 1.0, out)


def exact_best_bottleneck_cdf(config: SystemConfig, gamma):
    """Exact CDF of the selected relay's bottleneck SNR (max over relays of
    the min over the two sources), valid at any SNR.

    For DF the bottleneck is exponential; for ANC the min over sources shares
    the relay->destination hop, so it keeps the amplified-path form with the
    source-side rate doubled.
    """
    gamma = np.asarray(gamma, dtype=float)
    gamma_s, gamma_r = _gammas(config)
    n = config.num_relays
    if config.scheme is Scheme.DF_NC:
        rate = 2.0 / gamma_r
        single = 1.0 - np.exp(-rate * gamma)
    else:
        l1 = 2.0 / gamma_s
        l2 = 1.0 / gamma_r
        single = 1.0 - af_path_survival(gamma, l1, l2)
    return single**n


def _crandn(rng, size):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def direct_only_pair_ml_ser(p_source, trials, seed, mod_order=2):
    """Stripped-down baseline: joint ML of the two-user pair from the slot-1
    superposed observation alone.  Returns source-1 symbol error rate."""
    rng = np.random.default_rng(seed)
    m = mod_order
    const = np.exp(2j * np.pi * np.arange(m) / m)
    ii, jj = np.divmod(np.arange(m * m), m)
    sp = np.sqrt(p_source)
    h1 = _crandn(rng, trials)
    h2 = _crandn(rng, trials)
    i1 = rng.integers(0, m, trials)
    i2 = rng.integers(0, m, trials)
    noise = _crandn(rng, trials)
    y = sp * (h1 * const[i1] + h2 * const[i2]) + noise
    mu = sp * (h1[:, None] * const[ii] + h2[:, None] * const[jj])
    k = np.argmin(np.abs(y[:, None] - mu) ** 2, axis=1)
    return float((ii[k] != i1).mean())


def _pair_grid(mod_order: int):
    const = modulate(np.arange(mod_order), mod_order)
    ii, jj = np.divmod(np.arange(mod_order * mod_order), mod_order)
    return const, ii, jj


def brute_force_pair(y_relay, h1b, h2b, sp, mod_order):
    """The DF relay's joint ML decision (i, j) by scoring all M^2 pairs of
    y_relay = sp*(h1b*c_i + h2b*c_j) + noise; arrays are (B,)."""
    const, ii, jj = _pair_grid(mod_order)
    mu_r = sp * (h1b[:, None] * const[ii] + h2b[:, None] * const[jj])
    k = np.argmin(np.abs(y_relay[:, None] - mu_r) ** 2, axis=1)
    return ii[k], jj[k]


def brute_force_decide(config: SystemConfig, links, draws):
    """``montecarlo._decide`` with every joint-ML decision (the DF relay's
    and the destination's) taken by scoring all M^2 symbol pairs."""
    m = config.mod_order
    const, ii, jj = _pair_grid(m)
    sp = math.sqrt(config.p_source)
    sr = math.sqrt(config.p_relay)
    h1b, h2b, hrb, h_s1_d, h_s2_d = links
    x1 = const[draws.i1]
    x2 = const[draws.i2]

    y1 = sp * (h_s1_d * x1 + h_s2_d * x2) + draws.n_d1
    mu1 = sp * (h_s1_d[:, None] * const[ii] + h_s2_d[:, None] * const[jj])
    y_relay = sp * (h1b * x1 + h2b * x2) + draws.n_relay

    if config.scheme is Scheme.ANC:
        amp = sr / relay_normalization(config)
        y2 = amp * hrb * y_relay + draws.n_d2
        var2 = amp * amp * np.abs(hrb) ** 2 + 1.0
        mu2 = amp * hrb[:, None] * sp * (h1b[:, None] * const[ii] + h2b[:, None] * const[jj])
        metric = np.abs(y1[:, None] - mu1) ** 2 + np.abs(y2[:, None] - mu2) ** 2 / var2[:, None]
    else:
        r1, r2 = brute_force_pair(y_relay, h1b, h2b, sp, m)
        forwarded = const[(r1 + r2) % m]
        y2 = sr * hrb * forwarded + draws.n_d2
        mu2 = sr * hrb[:, None] * const[(ii + jj) % m]
        metric = np.abs(y1[:, None] - mu1) ** 2 + np.abs(y2[:, None] - mu2) ** 2

    k = np.argmin(metric, axis=1)
    return ii[k], jj[k]


def brute_force_run_batch(config: SystemConfig, gb, rng):
    """``montecarlo.run_batch`` with ``brute_force_decide`` for the
    detection; the same draws, in the same order, as the kernel."""
    sel, best = select_relay(*relay_snrs(config, gb))
    stage2 = _draw_stage2(config, sel.shape[0], rng)
    draws = stage2[-1]
    k1, k2 = brute_force_decide(config, _selected_links(gb, sel, stage2), draws)
    return k1 != draws.i1, k2 != draws.i2, sel, best


@dataclasses.dataclass(frozen=True)
class ComplexGains:
    """Complex fading coefficients of every link, for B rounds."""

    h_s1_r: np.ndarray  # source 1 -> relay j, (B, N)
    h_s2_r: np.ndarray  # source 2 -> relay j, (B, N)
    h_r_d: np.ndarray   # relay j -> destination, (B, N)
    h_s1_d: np.ndarray  # source 1 -> destination, (B,)
    h_s2_d: np.ndarray  # source 2 -> destination, (B,)


def full_phase_gains(config: SystemConfig, rng, size: int) -> ComplexGains:
    """The full-phase sampler: all 3N+2 links of ``size`` rounds as
    circularly symmetric complex Gaussians."""
    n = config.num_relays
    return ComplexGains(
        _complex_gaussian(rng, (size, n)),
        _complex_gaussian(rng, (size, n)),
        _complex_gaussian(rng, (size, n)),
        _complex_gaussian(rng, size),
        _complex_gaussian(rng, size),
    )


def full_phase_run_batch(config: SystemConfig, cg: ComplexGains, rng):
    """``montecarlo.run_batch`` on full-phase coefficients: selection reads
    |h|^2, and the selected relay's coefficients reach the detector with
    their phases as drawn."""
    gb = GainBatch(np.abs(cg.h_s1_r) ** 2, np.abs(cg.h_s2_r) ** 2, np.abs(cg.h_r_d) ** 2)
    sel, best = select_relay(*relay_snrs(config, gb))
    rows = np.arange(sel.shape[0])
    links = _Links(cg.h_s1_r[rows, sel], cg.h_s2_r[rows, sel], cg.h_r_d[rows, sel], cg.h_s1_d, cg.h_s2_d)
    draws = _draw_symbols(config, sel.shape[0], rng)
    k1, k2 = _decide(config, links, draws)
    return k1 != draws.i1, k2 != draws.i2, sel, best


def single_link_ser(snr_db: float, trials: int, seed: int, mod_order: int = 2):
    """Coherent MPSK over one Rayleigh link (no relays): the end-to-end
    calibration baseline.  For BPSK the exact average SER is
    0.5*(1 - sqrt(gbar/(1+gbar))) with gbar the mean SNR."""
    batches = _batches(seed, trials)
    amp = math.sqrt(10.0 ** (snr_db / 10.0))
    const = modulate(np.arange(mod_order), mod_order)
    errors = done = 0
    for rng, size in batches:
        h = _complex_gaussian(rng, size)
        idx = rng.integers(0, mod_order, size)
        noise = _complex_gaussian(rng, size)
        y = amp * h * const[idx] + noise
        k = np.argmin(np.abs(y[:, None] - amp * h[:, None] * const[None, :]) ** 2, axis=1)
        errors += int((k != idx).sum())
        done += size
    return _wilson_estimate(errors, done)


def rayleigh_bpsk_ser(gamma_bar):
    """Textbook closed form for coherent BPSK over a Rayleigh link."""
    return 0.5 * (1.0 - np.sqrt(gamma_bar / (1.0 + gamma_bar)))


def brute_force_allocation(p_total, num_relays, grid_points=10_000, mod_order=2):
    """Exhaustive-grid argmin of the allocation objective, evaluated through
    an independent fixed-order Gauss-Legendre integration of the MGF product
    (vectorized over the whole grid; no adaptive quadrature involved).

    Returns (grid_argmin_p_source, cell_width).
    """
    eps = 1e-6 * p_total
    ps = np.linspace(eps, p_total / 2.0 - eps, grid_points)
    pr = p_total - 2.0 * ps
    kappa = ps / pr
    gamma_s = ps / (1.0 + kappa)
    gamma_r = pr
    eta_relay = 1.0 / gamma_s + 1.0 / gamma_r
    eta_direct = 1.0 / gamma_s

    g = np.sin(np.pi / mod_order) ** 2
    upper = (mod_order - 1) * np.pi / mod_order
    nodes, weights = np.polynomial.legendre.leggauss(200)
    theta = 0.5 * upper * (nodes + 1.0)
    w = 0.5 * upper * weights
    s = g / np.sin(theta) ** 2  # (Q,)

    # best-relay MGF term sum, vectorized over (grid, quad nodes)
    mgf = np.zeros((grid_points, s.size))
    for n in range(1, num_relays + 1):
        coeff = math.comb(num_relays, n) * n * (-1.0) ** (n - 1)
        mgf += coeff * eta_relay[:, None] / (s[None, :] + n * eta_relay[:, None])
    mgf *= eta_direct[:, None] / (s[None, :] + eta_direct[:, None])
    ser = mgf @ w / np.pi
    k = int(np.argmin(ser))
    return float(ps[k]), float(ps[1] - ps[0])
