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
unit-mean exponentials.  Outage estimation stops there.  Stage 2
(``_draw_stage2``) draws only what detection can see: one uniform phase psi,
under DF-NC one relay->destination gain g_rd (DF selection never reads it),
the two direct links as complex Gaussians, then symbols and noises.  The
kernel gathers h1b = sqrt(g1), h2b = sqrt(g2)*exp(j*psi) and, under ANC,
hrb = sqrt(g_rd) from the selected relay's gains.  No draw depends on
selection or on the powers, so the configs of a group, one scheme, PSK order
and relay count, share them (``estimate_group``, common random numbers):
each batch is drawn once and every config selects and detects on it.  For
fixed gains every relay's bottleneck SNR rises with the budget, so a group's
outage estimates are nonincreasing in SNR by construction.

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
    "estimate_group",
]

# Fixed so that the mapping from trial index to random draws never changes.
BATCH_SIZE = 1 << 14

# Default early stop of a SER estimate: the first batch boundary where both
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


def _draw_stage2(config: SystemConfig, size: int, rng: np.random.Generator):
    """Stage 2 of ``size`` rounds, none of it read by selection, in a fixed
    order: the phase exp(j*psi) of h2b, DF-NC's relay->destination gain
    (None under ANC), the two direct links, then symbols and noises."""
    phase = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size))
    g_rd = rng.standard_exponential(size) if config.scheme is Scheme.DF_NC else None
    direct = _complex_gaussian(rng, size), _complex_gaussian(rng, size)
    return phase, g_rd, direct, _draw_symbols(config, size, rng)


def _selected_links(gb: GainBatch, sel, stage2) -> _Links:
    """The coefficients that detection sees, in the rotated form of the
    module docstring (h1b and hrb real, one phase on h2b)."""
    phase, g_rd, direct, _ = stage2
    rows = np.arange(sel.shape[0])
    g_rd = g_rd if gb.g_r_d is None else gb.g_r_d[rows, sel]
    h2b = np.sqrt(gb.g_s2_r[rows, sel]) * phase
    return _Links(np.sqrt(gb.g_s1_r[rows, sel]), h2b, np.sqrt(g_rd), *direct)


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


def _errors(config: SystemConfig, gb: GainBatch, sel, stage2):
    """The per-config kernel: gather, detect and flag each source's errors."""
    draws = stage2[-1]
    k1, k2 = _decide(config, _selected_links(gb, sel, stage2), draws)
    return k1 != draws.i1, k2 != draws.i2


def run_batch(config: SystemConfig, gb: GainBatch, rng: np.random.Generator):
    """One vectorized batch of protocol rounds on the stage-1 gains ``gb``:
    select, draw stage 2 from ``rng``, detect.  Returns per-trial source-1
    and source-2 error flags, the selected relay index and the
    selection-bottleneck SNR.  Under DF-NC relay decoding errors propagate
    into the forwarded symbol; there is no genie."""
    sel, best = select_relay(*relay_snrs(config, gb))
    return (*_errors(config, gb, sel, _draw_stage2(config, sel.shape[0], rng)), sel, best)


def _count(config: SystemConfig, gb: GainBatch, stage2, gamma_th: float | None) -> tuple[int, int, int]:
    """One config's outages below ``gamma_th`` and errors per source on
    ``stage2`` in one batch (0 for what is None), its arrays freed on return."""
    sel, best = select_relay(*relay_snrs(config, gb))
    below = 0 if gamma_th is None else int(np.count_nonzero(best < gamma_th))
    if stage2 is None:
        return below, 0, 0
    e1, e2 = _errors(config, gb, sel, stage2)
    return below, int(e1.sum()), int(e2.sum())


def estimate_group(
    configs: list[SystemConfig],
    trials: int,
    seed: int,
    *,
    ser: bool = True,
    gamma_th: float | None = None,
    max_errors: int | None = MAX_ERRORS,
) -> list[tuple[tuple[SerEstimate, SerEstimate] | None, float | None]]:
    """(SER pair, outage) of each config of a group, configs of one scheme,
    PSK order and relay count at any powers; an estimate is None unless
    ``ser`` or ``gamma_th`` asks for it.  Each batch draws the stage-1 gains
    once and, while any config counts symbol errors, stage 2 once.  A config
    counts outages (selected-relay SNR below ``gamma_th``) over all
    ``trials``, and errors through ``run_batch``'s kernel up to its own stop:
    the first batch boundary where both sources have ``max_errors`` errors
    (None: no stop).  No draw depends on selection, the powers or the other
    configs, so each estimate is bit for bit the one its config gets alone."""
    if len({(c.scheme, c.mod_order, c.num_relays) for c in configs}) != 1:
        raise ValueError("a group needs one or more configs, all of one scheme, PSK order and relay count")
    if gamma_th is not None and not gamma_th >= 0:  # NaN fails the comparison too
        raise ValueError("gamma_th must be nonnegative")
    n = len(configs)
    err1, err2, done, below = [0] * n, [0] * n, [0] * n, [0] * n
    counting = list(range(n)) if ser else []
    for rng, size in _batches(seed, trials):
        gb = sample_gains(configs[0], rng, size)
        stage2 = _draw_stage2(configs[0], size, rng) if counting else None
        for k in range(n) if gamma_th is not None else counting:
            outages, e1, e2 = _count(configs[k], gb, stage2 if k in counting else None, gamma_th)
            below[k] += outages
            if k in counting:
                err1[k], err2[k], done[k] = err1[k] + e1, err2[k] + e2, done[k] + size
        del gb, stage2  # free this batch before the next is drawn
        if max_errors is not None:
            counting = [k for k in counting if min(err1[k], err2[k]) < max_errors]
        if not counting and gamma_th is None:
            break
    return [
        ((_wilson_estimate(err1[k], done[k]), _wilson_estimate(err2[k], done[k])) if ser else None,
         below[k] / trials if gamma_th is not None else None)
        for k in range(n)
    ]


def estimate_ser(
    config: SystemConfig,
    trials: int,
    seed: int,
    max_errors: int | None = MAX_ERRORS,
) -> tuple[SerEstimate, SerEstimate]:
    """Per-source SER at the config's powers, stopping as ``estimate_group``
    does at ``max_errors``: a group of one."""
    return estimate_group([config], trials, seed, max_errors=max_errors)[0][0]


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
    """Fraction of fading draws whose selected-relay SNR falls below gamma_th:
    a group of one."""
    return estimate_group([config], trials, seed, ser=False, gamma_th=gamma_th)[0][1]
