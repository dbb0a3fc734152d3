"""Independent reference computations used only by the test suite.

Everything here is derived from first principles (exact distributions,
brute-force detectors) and never calls the code paths it is used to check.
The brute-force detectors that are compared with ``montecarlo.run_batch``
reuse its sampling, so that both decide on the same draws, and select with
``max_min_selection``, which forms both sources' per-relay SNRs the way the
package did before it selected on one bottleneck per scheme.  The
full-phase sampler draws every link as a complex Gaussian, the way the
package did before it drew gains first; it is the reference for the
gain-first sampler and feeds ``max_min_selection`` and the package's own
detection, so that only the sampling is under test.
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
    _STAGE2_CHUNKS,
    _Stage2,
    _batches,
    _decide,
    _draw_stage2,
    _stage2_buffers,
    _selected_links,
    _wilson_estimate,
    _df_select,
    modulate,
    relay_normalization,
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


def brute_force_decide(config: SystemConfig, relay_links, stage2):
    """``montecarlo._decide`` with every joint-ML decision (the DF relay's
    and the destination's) taken by scoring all M^2 symbol pairs."""
    m = config.mod_order
    const, ii, jj = _pair_grid(m)
    sp = math.sqrt(config.p_source)
    sr = math.sqrt(config.p_relay)
    h1b, h2b, hrb = relay_links
    h_s1_d, h_s2_d = stage2.h_s1_d, stage2.h_s2_d
    x1 = const[stage2.i1]
    x2 = const[stage2.i2]

    y1 = sp * (h_s1_d * x1 + h_s2_d * x2) + stage2.n_d1
    mu1 = sp * (h_s1_d[:, None] * const[ii] + h_s2_d[:, None] * const[jj])
    y_relay = sp * (h1b * x1 + h2b * x2) + stage2.n_relay

    if config.scheme is Scheme.ANC:
        amp = sr / relay_normalization(config)
        y2 = amp * hrb * y_relay + stage2.n_d2
        var2 = amp * amp * np.abs(hrb) ** 2 + 1.0
        mu2 = amp * hrb[:, None] * sp * (h1b[:, None] * const[ii] + h2b[:, None] * const[jj])
        metric = np.abs(y1[:, None] - mu1) ** 2 + np.abs(y2[:, None] - mu2) ** 2 / var2[:, None]
    else:
        r1, r2 = brute_force_pair(y_relay, h1b, h2b, sp, m)
        forwarded = const[(r1 + r2) % m]
        y2 = sr * hrb * forwarded + stage2.n_d2
        mu2 = sr * hrb[:, None] * const[(ii + jj) % m]
        metric = np.abs(y1[:, None] - mu1) ** 2 + np.abs(y2[:, None] - mu2) ** 2

    k = np.argmin(metric, axis=1)
    return ii[k], jj[k]


def amplified_path_snr(a, c, gamma_s, gamma_r):
    """End-to-end SNR gamma_s*a * gamma_r*c / (gamma_s*a + gamma_r*c + 1) of
    an amplified relay path with source->relay gain a and relay->destination
    gain c, elementwise, written out as a product over a sum."""
    return gamma_s * a * gamma_r * c / (a * gamma_s + c * gamma_r + 1.0)


def max_min_selection(config: SystemConfig, gb):
    """Max-min relay selection from both sources' per-relay SNRs: the
    amplified end-to-end SNR under ANC, the source->relay receive SNR
    under DF-NC, chosen by ``config.scheme`` (``gb.g_r_d`` may be set under
    DF-NC too).  Returns, per round, the relay whose smaller SNR is largest,
    ties toward the lowest index, and that smaller SNR."""
    gamma_s, gamma_r = _gammas(config)
    if config.scheme is Scheme.ANC:
        s1 = amplified_path_snr(gb.g_s1_r, gb.g_r_d, gamma_s, gamma_r)
        s2 = amplified_path_snr(gb.g_s2_r, gb.g_r_d, gamma_s, gamma_r)
    else:
        s1, s2 = gb.g_s1_r * gamma_r, gb.g_s2_r * gamma_r
    bottleneck = np.minimum(s1, s2)
    sel = np.argmax(bottleneck, axis=-1)  # the first maximum
    return sel, np.take_along_axis(bottleneck, sel[..., None], axis=-1)[..., 0]


def gain_batch(config: SystemConfig, g_s1_r, g_s2_r, g_r_d=None) -> GainBatch:
    """The ``GainBatch`` that ``sample_gains`` builds from these gains:
    ``g_r_d`` under ANC, the package's DF-NC selection under DF-NC.  A test
    helper, not an oracle."""
    if config.scheme is Scheme.ANC:
        return GainBatch(g_s1_r, g_s2_r, g_r_d, None)
    return GainBatch(g_s1_r, g_s2_r, None, *_df_select(g_s1_r, g_s2_r))


def brute_force_run_batch(config: SystemConfig, gb, stage2):
    """``montecarlo.run_batch`` with ``max_min_selection`` for the selection
    and ``brute_force_decide`` for the detection, on the same stage-1 gains
    and stage-2 draws."""
    sel, best = max_min_selection(config, gb)
    k1, k2 = brute_force_decide(config, _selected_links(gb, sel, stage2), stage2)
    return k1 != stage2.i1, k2 != stage2.i2, sel, best


def complex_gaussian(rng, size) -> np.ndarray:
    """Circularly symmetric complex Gaussians, E|h|^2 = 1, in complex64 and in
    polar form: radius sqrt(E), E a float32 unit exponential, at an angle
    psi uniform on [0, 2*pi), drawn after the radii.  |h|^2 = E is
    exponential and the phase is uniform and independent of it, which is
    the law CN(0, 1).  The allocating form of
    ``montecarlo._complex_gaussian``, which must match it bit for bit."""
    radius = np.sqrt(rng.standard_exponential(size, dtype=np.float32))
    psi = rng.random(size, dtype=np.float32) * np.float32(2.0 * np.pi)
    return radius * np.cos(psi) + 1j * (radius * np.sin(psi))


def draw_stage2(config: SystemConfig, size: int, rng):
    """Stage 2 of ``size`` rounds in fresh buffers: the package's chunk fill
    run over the one range 0:size.  A test helper, not an oracle."""
    stage2 = _stage2_buffers(config, size)
    _draw_stage2(config, stage2, 0, size, rng)
    return stage2


def chunked_stage2(config: SystemConfig, size: int, rng):
    """A batch's whole stage 2 as the estimator draws it, after stage 1: one
    ``draw_stage2`` per chunk, in chunk order, each chunk ending at a
    ``_STAGE2_CHUNKS`` row below ``size`` or at ``size``, concatenated."""
    bounds = [0, *(end for end in _STAGE2_CHUNKS if end < size), size]
    chunks = [draw_stage2(config, hi - lo, rng) for lo, hi in zip(bounds, bounds[1:])]
    return _Stage2(*(None if parts[0] is None else np.concatenate(parts) for parts in zip(*chunks)))


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
        complex_gaussian(rng, (size, n)),
        complex_gaussian(rng, (size, n)),
        complex_gaussian(rng, (size, n)),
        complex_gaussian(rng, size),
        complex_gaussian(rng, size),
    )


def draw_symbols(config: SystemConfig, size: int, rng) -> _Stage2:
    """The rest of a full-phase round, drawn after the links: both symbols,
    then the relay's and the destination's two noises, in a ``_Stage2``
    whose phase, g_rd and direct links are None."""
    m = config.mod_order
    i1 = rng.integers(0, m, size)
    i2 = rng.integers(0, m, size)
    return _Stage2(None, None, None, None, i1, i2, *(complex_gaussian(rng, size) for _ in range(3)))


def full_phase_run_batch(config: SystemConfig, cg: ComplexGains, symbols: _Stage2):
    """``montecarlo.run_batch`` on full-phase coefficients and the symbols
    and noises of ``draw_symbols``: ``max_min_selection`` reads |h|^2, and
    the selected relay's and the direct coefficients reach the detector with
    their phases as drawn."""
    gb = GainBatch(np.abs(cg.h_s1_r) ** 2, np.abs(cg.h_s2_r) ** 2, np.abs(cg.h_r_d) ** 2, None)
    sel, best = max_min_selection(config, gb)
    rows = np.arange(sel.shape[0])
    relay_links = cg.h_s1_r[rows, sel], cg.h_s2_r[rows, sel], cg.h_r_d[rows, sel]
    stage2 = symbols._replace(h_s1_d=cg.h_s1_d, h_s2_d=cg.h_s2_d)
    k1, k2 = _decide(config, relay_links, stage2)
    return k1 != stage2.i1, k2 != stage2.i2, sel, best


def single_link_ser(snr_db: float, trials: int, seed: int, mod_order: int = 2):
    """Coherent MPSK over one Rayleigh link (no relays): the end-to-end
    calibration baseline.  For BPSK the exact average SER is
    0.5*(1 - sqrt(gbar/(1+gbar))) with gbar the mean SNR."""
    batches = _batches(seed, trials)
    amp = math.sqrt(10.0 ** (snr_db / 10.0))
    const = modulate(np.arange(mod_order), mod_order)
    errors = done = 0
    for rng, size in batches:
        h = complex_gaussian(rng, size)
        idx = rng.integers(0, mod_order, size)
        noise = complex_gaussian(rng, size)
        y = amp * h * const[idx] + noise
        k = np.argmin(np.abs(y[:, None] - amp * h[:, None] * const[None, :]) ** 2, axis=1)
        errors += int((k != idx).sum())
        done += size
    return _wilson_estimate(errors, done)


def rayleigh_bpsk_ser(gamma_bar):
    """Textbook closed form for coherent BPSK over a Rayleigh link."""
    return 0.5 * (1.0 - np.sqrt(gamma_bar / (1.0 + gamma_bar)))


def mgf_mpsk_ser(mgf, mod_order: int) -> float:
    """Exact SER of coherent M-PSK at a fading SNR whose MGF E[exp(-s*SNR)]
    is ``mgf``: (1/pi) * integral over (0, (M-1)pi/M) of
    mgf(sin^2(pi/M) / sin^2(theta)) (Simon and Alouini, *Digital
    Communication over Fading Channels*, 2nd ed., 2005)."""
    g = math.sin(math.pi / mod_order) ** 2
    upper = (mod_order - 1) * math.pi / mod_order
    value, _ = quad(lambda theta: mgf(g / math.sin(theta) ** 2), 0.0, upper, epsabs=1e-12, limit=200)
    return value / math.pi


def direct_link_ser(config: SystemConfig) -> float:
    """Source 1's exact SER on its Rayleigh direct link alone, mean SNR
    p_source: DF-NC's law when source 2 is silent, because the forwarded
    network-coded symbol hides x1 behind the unknown x2."""
    return mgf_mpsk_ser(lambda s: 1.0 / (1.0 + s * config.p_source), config.mod_order)


def anc_single_user_ser(config: SystemConfig) -> float:
    """Source 1's exact SER under ANC when source 2 is silent: maximum-ratio
    combining of the direct link, SNR p_s*|h|^2, and one amplified path,
    SNR p_s*g1*k*g_rd/(k*g_rd + 1) with k = p_r/(2*p_s + 1) (the relay's
    fixed normalization), all gains unit exponentials.  The path's MGF
    averages 1/(1 + s*p_s*c) over g1 and then c = k*g_rd/(k*g_rd + 1) over
    g_rd, by one more integral."""
    ps = config.p_source
    k = config.p_relay / relay_normalization(config) ** 2

    def mgf(s):
        path, _ = quad(lambda x: math.exp(-x) / (1.0 + s * ps * k * x / (k * x + 1.0)), 0.0, math.inf, epsabs=1e-13)
        return path / (1.0 + s * ps)

    return mgf_mpsk_ser(mgf, config.mod_order)


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
