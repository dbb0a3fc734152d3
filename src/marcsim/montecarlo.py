"""Symbol-level Monte Carlo of the two-slot MARC protocol.

Slot 1: both sources transmit simultaneously; every relay and the destination
receive the superposition.  Slot 2: the selected relay forwards (amplified
superposition under ANC, network-coded re-modulated symbol under DF-NC) and
the destination runs joint maximum-likelihood detection of the symbol pair
with full channel knowledge, as the DF-NC relay does.  Each joint-ML decision
is exact over all M^2 pairs but costs O(M) per trial: for each hypothesis of
the first symbol, the best second symbol is the PSK point nearest one angle
(``_pair_ml``).

Fading is drawn gain first, in two stages.  Stage 1 (``sample_gains``)
draws only what relay selection reads: the power gains |h|^2 of the
source->relay links and, under ANC, of the relay->destination links, as
unit-mean exponentials.  Outage estimation stops there.
Stage 2 (``run_batch``, after selection) draws only what detection can see:
h1b = sqrt(g1) and h2b = sqrt(g2)*exp(j*psi) with one uniform psi for the
selected relay's source links, hrb = sqrt(g_rd) for its destination link
(under DF-NC a fresh exponential for the selected relay alone, as DF
selection never reads it), and the two direct links as complex Gaussians.

This is exact in distribution, not an approximation.  A Rayleigh coefficient
is sqrt(gain) times an independent uniform phase.  The noise is circular and
every joint-ML decision is coherent, so a common rotation of one receiver's
observation and its known coefficients changes no decision.  Rotating h1b,
h2b and the relay noise by alpha rotates the relay's observation by alpha;
rotating hrb by beta as well, and the destination's slot-2 noise by
alpha + beta under ANC (beta under DF-NC), rotates the slot-2 observation by
that angle.  Every metric is unchanged, and as the angles depend on the
channel alone, the rotated noises have the law of the originals.  With alpha = -arg h1b and beta = -arg hrb the one
phase left is that of h2b relative to h1b, uniform and independent of the
gains.

Randomness is counter-based: trial t always belongs to batch t // BATCH_SIZE,
and batch b draws from Philox(seed) jumped b times, so a result depends only
on (config, seed, trials) no matter how work is scheduled.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .model import Scheme, SystemConfig, _gammas

__all__ = [
    "BATCH_SIZE",
    "MAX_ERRORS",
    "GainBatch",
    "SerEstimate",
    "modulate",
    "relay_normalization",
    "sample_gains",
    "anc_snr",
    "relay_snrs",
    "select_relay",
    "run_batch",
    "estimate_ser",
    "estimate_outage",
    "sample_best_snr",
]

# Fixed so that the mapping from trial index to random draws never changes.
BATCH_SIZE = 1 << 14

# Default early stop of estimate_ser: the first batch boundary where both
# sources have MAX_ERRORS errors.
MAX_ERRORS = 400

_Z95 = 1.959963984540054


@dataclasses.dataclass(frozen=True)
class SerEstimate:
    """Error-rate estimate with a 95% Wilson confidence half-width."""

    errors: int
    trials: int
    ser: float
    ci_halfwidth: float

    def __post_init__(self):
        if self.errors > self.trials:
            raise ValueError("errors cannot exceed trials")


def _wilson_estimate(errors: int, trials: int) -> SerEstimate:
    p = errors / trials
    z2 = _Z95 * _Z95
    denom = 1.0 + z2 / trials
    half = _Z95 * math.sqrt(p * (1.0 - p) / trials + z2 / (4.0 * trials * trials)) / denom
    return SerEstimate(errors, trials, p, half)


def modulate(symbol_index, mod_order: int):
    """Unit-energy MPSK point exp(2j*pi*index/M)."""
    idx = np.asarray(symbol_index)
    if np.any(idx < 0) or np.any(idx >= mod_order):
        raise ValueError(f"symbol index out of range [0, {mod_order})")
    out = np.exp(2j * np.pi * idx / mod_order)
    return out if out.ndim else complex(out)


def relay_normalization(config: SystemConfig) -> float:
    """Amplitude normalization sqrt(E|relay input|^2), computed from the
    statistical model (both sources at p_source over unit-variance links,
    plus unit receiver noise)."""
    return math.sqrt(2.0 * config.p_source + 1.0)


def _batches(seed: int, trials: int):
    """Iterator of (rng, size), one per batch of ``trials``: trial t belongs
    to batch t // BATCH_SIZE, and batch b draws from Philox(seed) jumped b
    times."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return (
        (np.random.Generator(np.random.Philox(key=seed).jumped(b)), min(BATCH_SIZE, trials - start))
        for b, start in enumerate(range(0, trials, BATCH_SIZE))
    )


def _complex_gaussian(rng: np.random.Generator, size) -> np.ndarray:
    # circularly symmetric, E|h|^2 = 1; real part drawn before imag
    re = rng.standard_normal(size)
    im = rng.standard_normal(size)
    return (re + 1j * im) * math.sqrt(0.5)


@dataclasses.dataclass(frozen=True)
class GainBatch:
    """Power gains |h|^2 that relay selection reads, for B independent rounds."""

    g_s1_r: np.ndarray        # source 1 -> relay j, (B, N)
    g_s2_r: np.ndarray        # source 2 -> relay j, (B, N)
    g_r_d: np.ndarray | None  # relay j -> destination, (B, N); None under DF-NC


def sample_gains(config: SystemConfig, rng: np.random.Generator, size: int) -> GainBatch:
    """Stage 1: ``size`` i.i.d. Rayleigh realizations of the power gains that
    selection reads (the source->relay links, plus the relay->destination
    links under ANC)."""
    shape = (size, config.num_relays)
    g1 = rng.standard_exponential(shape)
    g2 = rng.standard_exponential(shape)
    if config.scheme is Scheme.ANC:
        return GainBatch(g1, g2, rng.standard_exponential(shape))
    return GainBatch(g1, g2, None)


def anc_snr(gain_sr_sq, gain_rd_sq, gamma_s: float, gamma_r: float):
    """End-to-end SNR of one amplified relay path, elementwise.

    The denominator is >= 1, so a zero gain on either hop gives SNR 0
    without a division hazard.
    """
    num = gamma_s * gain_sr_sq * gamma_r * gain_rd_sq
    den = gain_sr_sq * gamma_s + gain_rd_sq * gamma_r + 1.0
    return num / den


def relay_snrs(config: SystemConfig, gb: GainBatch):
    """Per-relay SNR of each source's relay path, elementwise over the relay
    gains: the amplified end-to-end SNR under ANC, the source->relay receive
    SNR under DF-NC."""
    gamma_s, gamma_r = _gammas(config)
    if config.scheme is Scheme.ANC:
        c = gb.g_r_d
        return anc_snr(gb.g_s1_r, c, gamma_s, gamma_r), anc_snr(gb.g_s2_r, c, gamma_s, gamma_r)
    return gb.g_s1_r * gamma_r, gb.g_s2_r * gamma_r


def select_relay(snrs_s1, snrs_s2):
    """Max-min selection over the last (relay) axis: the index maximizing
    min(SNR from source 1, SNR from source 2), ties toward the lowest index,
    and that bottleneck SNR."""
    if np.shape(snrs_s1) != np.shape(snrs_s2):
        raise ValueError("per-relay SNR arrays must have equal shapes")
    bottleneck = np.minimum(snrs_s1, snrs_s2)
    sel = np.argmax(bottleneck, axis=-1)
    return sel, np.take_along_axis(bottleneck, sel[..., None], axis=-1)[..., 0]


class _Links(NamedTuple):
    """The complex coefficients that the receivers know, one entry per trial."""

    h1b: np.ndarray     # source 1 -> selected relay
    h2b: np.ndarray     # source 2 -> selected relay
    hrb: np.ndarray     # selected relay -> destination
    h_s1_d: np.ndarray  # source 1 -> destination
    h_s2_d: np.ndarray  # source 2 -> destination


class _Draws(NamedTuple):
    """Symbol indices sent and receiver noises, one entry per trial."""

    i1: np.ndarray
    i2: np.ndarray
    n_relay: np.ndarray
    n_d1: np.ndarray
    n_d2: np.ndarray


def _selected_links(gb: GainBatch, sel, rng: np.random.Generator) -> _Links:
    """Stage 2: the coefficients that detection sees, in the rotated form of
    the module docstring (h1b and hrb real, one phase on h2b)."""
    size = sel.shape[0]
    rows = np.arange(size)
    psi = rng.uniform(0.0, 2.0 * np.pi, size)
    h2b = np.sqrt(gb.g_s2_r[rows, sel]) * np.exp(1j * psi)
    g_rd = rng.standard_exponential(size) if gb.g_r_d is None else gb.g_r_d[rows, sel]
    h_s1_d = _complex_gaussian(rng, size)
    h_s2_d = _complex_gaussian(rng, size)
    return _Links(np.sqrt(gb.g_s1_r[rows, sel]), h2b, np.sqrt(g_rd), h_s1_d, h_s2_d)


def _draw_symbols(config: SystemConfig, size: int, rng: np.random.Generator) -> _Draws:
    """The rest of a round, drawn after the links: symbols and noises."""
    m = config.mod_order
    i1 = rng.integers(0, m, size)
    i2 = rng.integers(0, m, size)
    # selection depends on the gains only, so only the selected relay's
    # receiver noise is ever realized
    n_relay = _complex_gaussian(rng, size)
    n_d1 = _complex_gaussian(rng, size)
    n_d2 = _complex_gaussian(rng, size)
    return _Draws(i1, i2, n_relay, n_d1, n_d2)


def _pair_ml(z, score):
    """Exact joint ML over the PSK pairs (x1, x2) = (c_i, c_j), O(M) per trial.

    Every pair metric used here is, for fixed i, a term free of j minus
    2*Re(conj(c_j) * z[i]), because |c_j| = 1 and c_((i+j) mod M) = c_i * c_j.
    So the best j for each i is the PSK point nearest the angle of z[i].
    z only picks the candidate: ``score(j)`` evaluates the full metric of the
    pairs (i, j[i]) as an (M, B) array, and the argmin over i takes the
    lowest i on a tie, as the argmin over the flat M^2 pair index does.
    Returns (i, j), one pair per trial.
    """
    m = z.shape[0]
    # + 0.0 turns a -0.0 real part into +0.0, so z == 0 (every j ties)
    # slices to j = 0, the flat argmin's choice, and not to the angle pi
    t = np.arctan2(z.imag, z.real + 0.0)
    t *= m / (2.0 * np.pi)
    j = np.rint(t, out=t).astype(np.intp) & (m - 1)  # m is a power of two
    i = np.argmin(score(j), axis=0)
    return i, j[i, np.arange(j.shape[1])]


def _relay_decode(y_relay, h1b, h2b, sp: float, const):
    """The DF relay's joint ML decision (i, j) from its observation
    y_relay = sp*(h1b*c_i + h2b*c_j) + noise, one entry per trial."""
    ci = const[:, None]
    w = np.conj(sp * h2b)
    return _pair_ml(
        w * y_relay - (w * sp * h1b) * ci,
        lambda j: np.abs(y_relay - sp * (h1b * ci + h2b * const[j])) ** 2,
    )


def _decide(config: SystemConfig, links: _Links, draws: _Draws):
    """The destination's joint ML decision (k1, k2) of one round per trial,
    after the DF relay's own decision.  Deterministic: every random input
    is in ``links`` and ``draws``."""
    m = config.mod_order
    const = modulate(np.arange(m), m)
    ci = const[:, None]  # row i of an (M, B) array holds the hypothesis x1 = c_i
    sp = math.sqrt(config.p_source)
    sr = math.sqrt(config.p_relay)
    h1b, h2b, hrb, h_s1_d, h_s2_d = links
    x1 = const[draws.i1]
    x2 = const[draws.i2]

    y1 = sp * (h_s1_d * x1 + h_s2_d * x2) + draws.n_d1
    y_relay = sp * (h1b * x1 + h2b * x2) + draws.n_relay
    # slot 1's share of z: |y1 - a*c_i - b*c_j|^2 is a term free of j minus
    # 2*Re(conj(c_j) * conj(b)*(y1 - a*c_i)), with a = sp*h_s1_d, b = sp*h_s2_d
    w1 = np.conj(sp * h_s2_d)
    p1, q1 = w1 * y1, w1 * (sp * h_s1_d)

    def mu1(j):
        return sp * (h_s1_d * ci + h_s2_d * const[j])

    if config.scheme is Scheme.ANC:
        amp = sr / relay_normalization(config)
        y2 = amp * hrb * y_relay + draws.n_d2
        var2 = amp * amp * np.abs(hrb) ** 2 + 1.0
        w2 = np.conj(amp * hrb * sp * h2b) / var2
        z = (p1 + w2 * y2) - (q1 + w2 * (amp * hrb * sp * h1b)) * ci

        def metric(j):
            mu2 = amp * hrb * sp * (h1b * ci + h2b * const[j])
            return np.abs(y1 - mu1(j)) ** 2 + np.abs(y2 - mu2) ** 2 / var2

    else:
        # relay jointly decodes the pair, then forwards the modulo-M combine
        r1, r2 = _relay_decode(y_relay, h1b, h2b, sp, const)
        forwarded = const[(r1 + r2) % m]
        y2 = sr * hrb * forwarded + draws.n_d2
        # slot 2 is |y2 - (sr*hrb*c_i)*c_j|^2, so its share of z is
        # conj(sr*hrb*c_i) * y2
        z = p1 - q1 * ci + (np.conj(sr * hrb) * y2) * ci.conj()
        ii = np.arange(m)[:, None]

        def metric(j):
            return np.abs(y1 - mu1(j)) ** 2 + np.abs(y2 - sr * hrb * const[(ii + j) % m]) ** 2

    return _pair_ml(z, metric)


def run_batch(config: SystemConfig, gb: GainBatch, rng: np.random.Generator):
    """One vectorized batch of protocol rounds on the stage-1 gains ``gb``:
    select, draw stage 2 from ``rng``, detect.  Returns per-trial source-1
    and source-2 error flags, the selected relay index and the
    selection-bottleneck SNR.  Under DF-NC relay decoding errors propagate
    into the forwarded symbol; there is no genie."""
    sel, best = select_relay(*relay_snrs(config, gb))
    links = _selected_links(gb, sel, rng)
    draws = _draw_symbols(config, sel.shape[0], rng)
    k1, k2 = _decide(config, links, draws)
    return k1 != draws.i1, k2 != draws.i2, sel, best


def estimate_ser(
    config: SystemConfig,
    trials: int,
    seed: int,
    max_errors: int | None = MAX_ERRORS,
) -> tuple[SerEstimate, SerEstimate]:
    """Per-source SER at the config's powers.

    With ``max_errors`` set, the trial loop stops at the first batch boundary
    where both sources have ``max_errors`` errors; pass None to force the
    full trial count.
    """
    batches = _batches(seed, trials)
    err1 = err2 = done = 0
    for rng, size in batches:
        gb = sample_gains(config, rng, size)
        e1, e2, _, _ = run_batch(config, gb, rng)
        err1 += int(e1.sum())
        err2 += int(e2.sum())
        done += size
        if max_errors is not None and min(err1, err2) >= max_errors:
            break
    return _wilson_estimate(err1, done), _wilson_estimate(err2, done)


def sample_best_snr(config: SystemConfig, trials: int, seed: int) -> np.ndarray:
    """Selection-bottleneck SNR of the chosen relay for ``trials`` fading
    draws (no symbols are transmitted)."""
    batches = _batches(seed, trials)
    out = np.empty(trials)
    done = 0
    for rng, size in batches:
        gb = sample_gains(config, rng, size)
        out[done : done + size] = select_relay(*relay_snrs(config, gb))[1]
        done += size
    return out


def estimate_outage(config: SystemConfig, gamma_th: float, trials: int, seed: int) -> float:
    """Fraction of fading draws whose selected-relay SNR falls below gamma_th."""
    if not gamma_th >= 0:  # NaN fails the comparison too
        raise ValueError("gamma_th must be nonnegative")
    return float(np.mean(sample_best_snr(config, trials, seed) < gamma_th))

