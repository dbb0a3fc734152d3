"""Symbol-level Monte Carlo of the two-slot MARC protocol.

Slot 1: both sources transmit simultaneously; every relay and the destination
receive the superposition.  Slot 2: the selected relay forwards (amplified
superposition under ANC, network-coded re-modulated symbol under DF-NC) and
the destination runs joint maximum-likelihood detection of the symbol pair
with full channel knowledge, as the DF-NC relay does.  Each joint-ML decision
is exact over all M^2 pairs up to float32 rounding of the metrics but costs
O(M) per trial: for each hypothesis of the first symbol, the best second
symbol is the PSK point nearest one angle, and the full metric of those M
pairs decides; ``_joint_ml`` does both, for the relay and the destination.
A detection call covers at most ``_DETECT_ELEMENTS`` PSK-point elements,
rows * M, so its (M, rows) temporaries stay small at any M.

Fading is drawn gain first, in two stages.  Stage 1 (``sample_gains``)
draws only what relay selection reads: the power gains |h|^2 of the
source->relay links and, under ANC, of the relay->destination links, as
unit-mean exponentials.  Outage estimation stops there.  Stage 2, one
``_Stage2`` record per batch, holds what only detection can see, in draw
order: one uniform phase psi, under DF-NC one relay->destination gain g_rd
(DF selection never reads it), the two direct links as complex Gaussians,
then symbols and noises.  ``_draw_stage2`` fills it in fixed row chunks
(``_STAGE2_CHUNKS``), each when detection first reads into it.

Everything after selection runs in single precision: stage 2 is float32 and
complex64, the selected relay's gains are cast to float32 as they are
gathered, and detection computes in float32.  Stage 1, selection, its
bottleneck SNR and the outage count stay float64.  A phase is drawn as a
float32 uniform angle whose cos and sin fill the real and imaginary parts
(about a tenth of the cost of a complex exponential), and a complex
Gaussian in polar form: the square root of a float32 unit exponential times
such a phase, which is exactly CN(0, 1).  ``_MAX_POWER`` bounds the powers
that keep the float32 metrics finite.

Selection is max-min: the relay maximizing the smaller of the two sources'
SNRs through it.  Under DF-NC relay j's bottleneck is min(g1_j, g2_j)*gamma_r,
so selection reads no power, and stage 1 selects once per batch for every
config of its group (``GainBatch.df_sel``, with the selected min(g1, g2) in
``df_low``).  Under ANC ``anc_snr`` rises with its first gain, so relay j's
bottleneck is anc_snr(min(g1_j, g2_j), g_rd_j): one ``anc_snr`` per config.
``_select`` is the one selection: at a config's powers it returns the
relay and its bottleneck SNR, or the SNR alone.  Selection and the joint-ML
decision end in ``_first_extreme``, which loops over a short axis instead
of calling numpy's arg-reductions.  The one detection kernel, ``run_batch``,
takes ``_select``'s relay and the rows' stage-2 record, gathers
h1b = sqrt(g1), h2b = sqrt(g2)*exp(j*psi) and hrb = sqrt(g_rd) from the
selected relay's gains, and detects.  No draw depends on selection or on
the powers, so the configs of a group, one scheme, PSK order and relay
count, share them (``estimate_group``, common random numbers): each batch
is drawn once and every config runs ``run_batch`` on row slices of it.
Sweeps and tests run this same kernel, and its flags for a row do not
depend on the slice the row is detected in.  A SER estimate stops at the
first trial where both sources have ``MAX_ERRORS`` errors, so detection
runs only up to the slice holding that trial; the result does not depend
on how the batch was sliced.  Outage reads only the best bottleneck SNR,
``_select``'s value without the relay, so it is counted once per config and
batch over all rows, before detection; ``sample_best_snr`` returns the same
values.  For fixed gains every relay's bottleneck SNR rises with the
budget, so a group's outage estimates are nonincreasing in SNR by
construction.

This is exact in distribution, not an approximation.  A Rayleigh coefficient
is sqrt(gain) times an independent uniform phase.  The noise is circular and
every joint-ML decision is coherent, so a common rotation of one receiver's
observation and its known coefficients changes no decision.  Rotating h1b,
h2b and the relay noise by alpha rotates the relay's observation by alpha;
rotating hrb by beta as well, and the destination's slot-2 noise by
alpha + beta under ANC (beta under DF-NC), rotates the slot-2 observation by
that angle.  Every metric is unchanged, and as the angles depend on the
channel alone, the rotated noises have the law of the originals.  With
alpha = -arg h1b and beta = -arg hrb the one phase left is that of h2b
relative to h1b, uniform and independent of the gains.

Randomness is counter-based: trial t always belongs to batch t // BATCH_SIZE,
and batch b draws from the Philox stream of key seed at counter
(0, 0, b, 0), which is Philox(seed) jumped b times: stage 1 first, then the
stage-2 chunks in row order.  A draw is fixed by its place in that stream,
and the chunk bounds are constants, so a result depends only on
(config, seed, trials) no matter how work is scheduled or sliced.
"""

from __future__ import annotations

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .model import Scheme, SystemConfig, _gammas, _is_int

__all__ = [
    "BATCH_SIZE",
    "MAX_ERRORS",
    "GainBatch",
    "SerEstimate",
    "modulate",
    "relay_normalization",
    "sample_gains",
    "anc_snr",
    "run_batch",
    "estimate_group",
]

# Fixed so that the mapping from trial index to random draws never changes.
BATCH_SIZE = 1 << 14

# Default early stop of a SER estimate: the first trial at which both sources
# have MAX_ERRORS errors (inverse binomial sampling).  The source that reaches
# it last reports r/T where (r-1)/(T-1) is unbiased (Haldane, 1945); the gap
# is below 1/T, under 1/MAX_ERRORS of the estimate and well inside its 95% CI.
MAX_ERRORS = 400

# Rows at which a batch's stage-2 chunks end, clipped to the batch.  A chunk
# fills every field of the batch's _Stage2 record over its rows when detection
# first reads into it, so a SER estimate draws little past its stop; the first
# end is also the probe, its first detection slice (_next_slice), up to M = 16;
# later ends are not slice ends.
_STAGE2_CHUNKS = (2048, 4096, 8192, 16384)

# Most PSK-point elements, rows * M, of one detection call, whose (M, rows)
# temporaries peak near 28 B per element: at BPSK a call still detects a
# whole batch, at 16-PSK 2,048 rows, and past M = 2^15 one row.
_DETECT_ELEMENTS = 1 << 15

# Peak bytes per PSK point of a one-row detection call (M past 2^15), terms
# and constellation, rounded up: by tracemalloc 36.19 and 36.03 under ANC
# and 32.14 and 32.04 under DF-NC at M = 2^16 and 2^18.
_DETECT_BYTES = 40

# Most power, p_source or p_relay in W at unit noise, for which the float32
# detection metrics stay finite.  They grow as a power times a channel gain
# times a squared PSK distance (at most 4), and float32 ends at 3.4e38, so
# 1e30 W leaves the gains of a draw eight decades (|h|^2 up to about 8e7).
_MAX_POWER = 1e30

# Longest axis that _first_extreme reduces by a loop over its entries; a
# longer one goes to numpy's arg-reduction and a gather.  Timed under the
# CLI's malloc policy on a 2-core x86-64 box, medians: over (16,384, N)
# float64 columns the loop took 40, 128 and 343 us at N = 2, 5, 10 against
# 297, 481 and 684 us for np.argmax and the gather, still won at N = 12-14,
# and lost at N = 16 (1.7 against 0.9 ms: strided columns); over the
# (M, rows) float32 detection metric at 2^15 elements it took 47, 66 and
# 92 us at M = 2, 4, 8 against 384, 241 and 156 us for np.argmin and the
# gather, and tied at M = 16 (121 against 115 us).  So every figure's relay
# count (at most 10) and every PSK order below 16 loops.  At most 127: the
# loop's index is int8.
_SHORT_AXIS = 10

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
    angle = idx * (2.0 * np.pi / mod_order)
    out = np.empty(angle.shape, complex)
    np.cos(angle, out=out.real)  # cos and sin straight into the two halves
    np.sin(angle, out=out.imag)
    return out if out.ndim else complex(out)


def relay_normalization(config: SystemConfig) -> float:
    """Amplitude normalization sqrt(E|relay input|^2), computed from the
    statistical model (both sources at p_source over unit-variance links,
    plus unit receiver noise)."""
    return math.sqrt(2.0 * config.p_source + 1.0)


def _batches(seed: int, trials: int):
    """Iterator of (rng, size), one per batch of ``trials``: trial t belongs
    to batch t // BATCH_SIZE, and batch b draws from Philox(seed) at counter
    (0, 0, b, 0), where ``.jumped(b)`` would put it (each jump adds 2^128)."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return (
        (np.random.Generator(np.random.Philox(key=seed, counter=(0, 0, b, 0))), min(BATCH_SIZE, trials - start))
        for b, start in enumerate(range(0, trials, BATCH_SIZE))
    )


def _unit_phase(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill complex64 ``out`` with exp(j*psi), psi a float32 uniform angle on
    [0, 2*pi): its cos and sin straight into the two halves of ``out``."""
    psi = rng.random(out.shape, dtype=np.float32)
    psi *= 2.0 * np.pi
    np.cos(psi, out=out.real)
    np.sin(psi, out=out.imag)


def _complex_gaussian(rng: np.random.Generator, out: np.ndarray) -> None:
    """Fill complex64 ``out`` with circularly symmetric complex Gaussians,
    E|h|^2 = 1, in polar form: sqrt(|h|^2), |h|^2 a float32 unit exponential,
    times a uniform phase drawn after it (``_unit_phase``)."""
    radius = rng.standard_exponential(out.shape, dtype=np.float32)
    np.sqrt(radius, out=radius)
    _unit_phase(rng, out)
    out *= radius


@dataclasses.dataclass(frozen=True)
class GainBatch:
    """Stage 1 of B independent rounds: the power gains |h|^2 that relay
    selection reads and, under DF-NC, the relay it selects."""

    g_s1_r: np.ndarray          # source 1 -> relay j, (B, N)
    g_s2_r: np.ndarray          # source 2 -> relay j, (B, N)
    g_r_d: np.ndarray | None    # relay j -> destination, (B, N); None under DF-NC
    df_sel: np.ndarray | None   # DF-NC's selected relay, (B,); None under ANC
    df_low: np.ndarray | None = None  # DF-NC's selected min(g1, g2), (B,); None under ANC

    def __post_init__(self):
        shape = np.shape(self.g_s1_r)
        if np.shape(self.g_s2_r) != shape or (self.g_r_d is not None and np.shape(self.g_r_d) != shape):
            raise ValueError("per-relay gain arrays must have equal shapes")
        for name in ("df_sel", "df_low"):
            got = np.shape(getattr(self, name))
            if getattr(self, name) is not None and got != shape[:-1]:
                raise ValueError(f"{name} must have the gains' row shape {shape[:-1]}, not {got}")


def _first_extreme(a, axis=-1, *, lowest=False, index=True, pick=None):
    """(index, value) of the first maximum (``lowest``: minimum) of the 2-D
    array ``a``, which holds no NaN, along ``axis``, as numpy's
    arg-reduction and a gather give them: ties go to the lowest index.  The
    index is None unless ``index`` asks for it, and ``pick``, an integer
    array of a's shape, replaces the value by its own element at the index.

    Up to ``_SHORT_AXIS`` entries a loop keeps the running extreme, which a
    strict comparison moves, and updates the rest by arithmetic, not masked
    writes: the index is the largest k at which entry k moved the extreme,
    and ``pick`` adds moved * (pick[k] - its value)."""
    n = a.shape[axis]
    if n == 0:
        raise ValueError("attempt to get the extreme of an empty axis")
    if n > _SHORT_AXIS:
        if not index and pick is None:
            return None, (np.min if lowest else np.max)(a, axis=axis)
        at = np.expand_dims((np.argmin if lowest else np.argmax)(a, axis=axis), axis)
        got = np.take_along_axis(a if pick is None else pick, at, axis).squeeze(axis)
        return at.squeeze(axis) if index else None, got
    a = a if axis == 0 else a.T  # entry k is a[k]
    beats, keep = (np.less, np.minimum) if lowest else (np.greater, np.maximum)
    best = a[0].copy()
    if not index and pick is None:  # the extreme alone
        for k in range(1, n):
            keep(best, a[k], out=best)
        return None, best
    # an int8 index (k < _SHORT_AXIS) moves an eighth of the bytes of an intp one
    idx, moved, step = np.zeros(best.shape, np.int8), np.empty(best.shape, bool), np.empty(best.shape, np.int8)
    picks = None if pick is None else (pick if axis == 0 else pick.T)
    got = None if picks is None else picks[0].copy()
    for k in range(1, n):
        beats(a[k], best, out=moved)
        np.multiply(moved, np.int8(k), out=step)  # k rises: the last k that moved the extreme is the largest
        np.maximum(idx, step, out=idx)
        if got is not None:
            diff = picks[k] - got
            diff *= moved
            got += diff
        keep(best, a[k], out=best)
    return idx.astype(np.intp) if index else None, best if got is None else got


def _df_select(g_s1_r, g_s2_r):
    """DF-NC's max-min selection over the last (relay) axis, ties toward the
    lowest index, and the selected relay's min(g1, g2).  Rounding is
    monotone, so min(g1_j*gamma_r, g2_j*gamma_r) is min(g1_j, g2_j)*gamma_r
    exactly, and the relay is the same at every power split."""
    return _first_extreme(np.minimum(g_s1_r, g_s2_r))


# Bytes per (row, relay) element that a stage-1 batch and its relay selection
# hold at their peak: the float64 gains g1, g2 and, under ANC, g_rd, plus
# min(g1, g2) and, under ANC, anc_snr's denominator (the SNR overwrites the
# min).  ANC's 48 counts one (B, N) float64 array more than its selection
# holds, and is kept so that validate_spec's relay cap does not move.
_STAGE1_BYTES = {Scheme.ANC: 48, Scheme.DF_NC: 24}


def sample_gains(config: SystemConfig, rng: np.random.Generator, size: int) -> GainBatch:
    """Stage 1: ``size`` i.i.d. Rayleigh realizations of the power gains that
    selection reads (the source->relay links, plus the relay->destination
    links under ANC) and, under DF-NC, whose selection reads no power, the
    selected relay."""
    shape = (size, config.num_relays)
    g1 = rng.standard_exponential(shape)
    g2 = rng.standard_exponential(shape)
    if config.scheme is Scheme.ANC:
        return GainBatch(g1, g2, rng.standard_exponential(shape), None)
    return GainBatch(g1, g2, None, *_df_select(g1, g2))


def anc_snr(gain_sr_sq, gain_rd_sq, gamma_s: float, gamma_r: float, out=None):
    """End-to-end SNR of one amplified relay path, elementwise:
    gamma_s*a * gamma_r*c / (gamma_s*a + gamma_r*c + 1).  It rises with
    either gain, so min over two sources' paths through one relay is the
    path SNR of the smaller source->relay gain.  ``out``, if given, receives
    the SNR and may be ``gain_sr_sq`` itself.

    The denominator is >= 1, so a zero gain on either hop gives SNR 0
    without a division hazard.
    """
    snr = np.multiply(gain_sr_sq, gamma_s, out=out)  # gamma_s*a, read by both terms
    den = np.multiply(gain_rd_sq, gamma_r)
    den += snr
    den += 1.0
    snr *= gamma_r
    snr *= gain_rd_sq
    snr /= den
    return snr


class _Stage2(NamedTuple):
    """A batch's stage 2, the draws that only detection reads, one entry per
    trial, its fields in draw order."""

    phase: np.ndarray          # exp(j*psi), the phase of h2b (complex64, like every complex row)
    g_rd: np.ndarray | None    # DF-NC's selected relay -> destination gain; None under ANC
    h_s1_d: np.ndarray         # source 1 -> destination
    h_s2_d: np.ndarray         # source 2 -> destination
    i1: np.ndarray             # symbol indices sent
    i2: np.ndarray
    n_relay: np.ndarray        # receiver noises
    n_d1: np.ndarray
    n_d2: np.ndarray


def _stage2_buffers(config: SystemConfig, size: int) -> _Stage2:
    """Unfilled stage-2 buffers of a batch of ``size`` rounds: the six complex64
    rows in one block, the two symbol rows in another, and DF-NC's float32
    g_rd."""
    phase, h_s1_d, h_s2_d, n_relay, n_d1, n_d2 = np.empty((6, size), np.complex64)
    i1, i2 = np.empty((2, size), np.int64)
    g_rd = np.empty(size, np.float32) if config.scheme is Scheme.DF_NC else None
    return _Stage2(phase, g_rd, h_s1_d, h_s2_d, i1, i2, n_relay, n_d1, n_d2)


def _draw_stage2(config: SystemConfig, stage2: _Stage2, lo: int, hi: int, rng: np.random.Generator) -> None:
    """Draw rows lo:hi of ``stage2`` in its field order.  Selection reads
    none of it, so only the selected relay's receiver noise is realized."""
    n = hi - lo
    _unit_phase(rng, stage2.phase[lo:hi])
    if stage2.g_rd is not None:
        rng.standard_exponential(dtype=np.float32, out=stage2.g_rd[lo:hi])
    _complex_gaussian(rng, stage2.h_s1_d[lo:hi])
    _complex_gaussian(rng, stage2.h_s2_d[lo:hi])
    stage2.i1[lo:hi] = rng.integers(0, config.mod_order, n)
    stage2.i2[lo:hi] = rng.integers(0, config.mod_order, n)
    for noise in (stage2.n_relay, stage2.n_d1, stage2.n_d2):
        _complex_gaussian(rng, noise[lo:hi])


def _selected_links(gb: GainBatch, sel, stage2: _Stage2):
    """The selected relay's links (h1b, h2b, hrb), in the rotated form of
    the module docstring (h1b and hrb real, one phase on h2b), in single
    precision: each float64 gain is cast to float32 as its root is taken."""
    rows = np.arange(sel.shape[0])
    g_rd = stage2.g_rd if gb.g_r_d is None else gb.g_r_d[rows, sel]
    h1b, h2b, hrb = (np.sqrt(g, dtype=np.float32) for g in (gb.g_s1_r[rows, sel], gb.g_s2_r[rows, sel], g_rd))
    return h1b, h2b * stage2.phase, hrb


def _add_sq_abs(mu, d):
    """d + |mu|^2 into ``d`` (None: a new float array), squaring the parts of
    a C-contiguous ``mu`` in place."""
    parts = mu.view(mu.real.dtype)  # re, im interleaved along the last axis
    np.square(parts, out=parts)
    re, im = parts[..., 0::2], parts[..., 1::2]
    if d is None:
        return np.add(re, im)
    d += re
    d += im
    return d


def _joint_ml(const, slots, nc=None):
    """Exact joint ML decision (i, j) over the PSK pairs (c_i, c_j), one per
    trial, in O(M) per trial, up to rounding of the metrics in ``const``'s
    precision.  Each slot (y, h1, h2, scale, var) adds
    |y - scale*(h1*c_i + h2*c_j)|^2 / var to the metric (var None: unit
    noise), and ``nc`` = (y, g), DF-NC's forward, adds |y - g*c_((i+j) mod M)|^2.

    A slot is first folded to |y' - a*c_i - b*c_j|^2, with y', a and b its y,
    scale*h1 and scale*h2 over sqrt(var).  For fixed i each term is one free
    of j minus 2*Re(conj(c_j) * z[i]), because |c_j| = 1 and
    c_((i+j) mod M) = c_i * c_j: a slot's share of z is conj(b)*y' -
    conj(b)*a*c_i, and the forward's conj(g)*y*conj(c_i).  So the best j for
    each i is the PSK point nearest the angle of z[i], and the exact metric of
    those M candidates decides, the lowest i on a tie, as over the flat M^2
    pair index.  The (M, B) arrays are built in place: a slot's term is
    |conj(c_i)*(b*c_j - y') + a|^2 and the forward's |g*c_j*c_i - y|^2, so
    every product with c_i is a broadcast of the (M, 1) column."""
    m = const.shape[0]
    ci = const[:, None]  # row i of an (M, B) array holds the hypothesis c_i
    folded, p, q = [], None, None
    for y, h1, h2, scale, var in slots:
        if var is not None:
            root = np.sqrt(var)
            y, scale = y / root, scale / root
        a, b = scale * h1, scale * h2
        folded.append((y, a, b))
        w = np.conj(b)
        if p is None:
            p, q = w * y, w * a
        else:
            p += w * y
            q += w * a
        del w
    z = np.multiply(q, ci)
    np.subtract(p, z, out=z)
    del p, q
    if nc is not None:
        z += (np.conj(nc[1]) * nc[0]) * ci.conj()
    # + 0.0 turns a -0.0 real part into +0.0, so z == 0 (every j ties)
    # picks j = 0, the flat pair index's choice, and not the angle pi
    t = np.arctan2(z.imag, z.real + 0.0)
    del z  # z only picks the candidates
    t *= m / (2.0 * np.pi)
    j = np.rint(t, out=t).astype(np.intp)
    del t
    j &= m - 1  # m is a power of two

    d, mu = None, np.empty(j.shape, const.dtype)
    for y, a, b in folded:
        np.take(const, j, out=mu, mode="clip")  # "clip" skips take's copy of out
        mu *= b
        mu -= y
        mu *= ci.conj()
        mu += a
        d = _add_sq_abs(mu, d)
    if nc is not None:
        np.take(const, j, out=mu, mode="clip")
        mu *= nc[1]
        mu *= ci
        mu -= nc[0]
        d = _add_sq_abs(mu, d)
    del mu
    return _first_extreme(d, axis=0, lowest=True, pick=j)


def _decide(config: SystemConfig, relay_links, stage2: _Stage2):
    """The destination's joint ML decision (k1, k2) of one round per trial,
    after the DF relay's own decision, both by ``_joint_ml`` over the
    complex64 constellation.  Deterministic: every random input is in
    ``relay_links`` = (h1b, h2b, hrb) and in ``stage2``."""
    m = config.mod_order
    const = modulate(np.arange(m), m).astype(np.complex64)
    sp = math.sqrt(config.p_source)
    sr = math.sqrt(config.p_relay)
    h1b, h2b, hrb = relay_links
    x1, x2 = const[stage2.i1], const[stage2.i2]
    y_relay = sp * (h1b * x1 + h2b * x2) + stage2.n_relay
    y1 = sp * (stage2.h_s1_d * x1 + stage2.h_s2_d * x2) + stage2.n_d1
    slot1 = (y1, stage2.h_s1_d, stage2.h_s2_d, sp, None)
    del x1, x2
    if config.scheme is Scheme.ANC:
        amp = sr / relay_normalization(config)
        y2 = amp * hrb * y_relay + stage2.n_d2
        del y_relay
        var2 = amp * amp * np.abs(hrb) ** 2 + 1.0
        return _joint_ml(const, [slot1, (y2, h1b, h2b, amp * hrb * sp, var2)])
    # the relay jointly decodes the pair, then forwards the modulo-M combine
    r1, r2 = _joint_ml(const, [(y_relay, h1b, h2b, sp, None)])
    del y_relay
    g = sr * hrb
    y2 = g * const[(r1 + r2) % m] + stage2.n_d2
    return _joint_ml(const, [slot1], nc=(y2, g))


def _select(config: SystemConfig, gb: GainBatch, index: bool = True):
    """Max-min relay selection at the config's powers: the relay maximizing
    min(SNR from source 1, SNR from source 2), ties toward the lowest index
    (None unless ``index`` asks for it), and that bottleneck SNR.  Under
    DF-NC the relay is the batch's ``df_sel`` and its bottleneck
    ``df_low`` * gamma_r; under ANC relay j's bottleneck is
    anc_snr(min(g1_j, g2_j), g_rd_j)."""
    gamma_s, gamma_r = _gammas(config)
    if config.scheme is Scheme.DF_NC:
        if gb.df_sel is None or gb.df_low is None:
            raise ValueError("a DF-NC GainBatch needs df_sel and df_low: sample_gains' relay and its min(g1, g2)")
        return gb.df_sel if index else None, gb.df_low * gamma_r
    if gb.g_r_d is None:
        raise ValueError("an ANC GainBatch needs g_r_d, the relay->destination gains that selection reads")
    low = np.minimum(gb.g_s1_r, gb.g_s2_r)
    return _first_extreme(anc_snr(low, gb.g_r_d, gamma_s, gamma_r, low), index=index)  # in place: one (B, N) fewer


def run_batch(config: SystemConfig, gb: GainBatch, stage2: _Stage2):
    """The detection kernel, one vectorized batch of protocol rounds: on the
    relay that ``_select`` picks from the stage-1 gains ``gb``, gather its
    links and detect the rows of the ``_Stage2`` record.  Returns per-trial
    source-1 and source-2 error flags.  Under DF-NC relay decoding errors
    propagate into the forwarded symbol; there is no genie."""
    k1, k2 = _decide(config, _selected_links(gb, _select(config, gb)[0], stage2), stage2)
    return k1 != stage2.i1, k2 != stage2.i2


def _rows(gb: GainBatch, stage2: _Stage2, lo: int, hi: int):
    """Rows lo:hi of a batch's stage-1 gains and stage-2 record (None fields
    stay None), as views."""

    def cut(a):
        return None if a is None else a[lo:hi]

    gains = GainBatch(cut(gb.g_s1_r), cut(gb.g_s2_r), cut(gb.g_r_d), cut(gb.df_sel), cut(gb.df_low))
    return gains, _Stage2(*map(cut, stage2))


def _next_slice(done: int, err1: int, err2: int, max_errors: int | None, rest: int) -> int:
    """Rows of a config's next detection slice, after ``err1`` and ``err2``
    errors in ``done`` trials, with ``rest`` rows left that one call may
    detect (the rest of the batch, capped at ``_DETECT_ELEMENTS // M``): a
    probe of the first stage-2 chunk's rows first, then the trials predicted
    to the slower source's stop (+25%, at least the probe), or ``rest``.  Any
    slicing gives the same estimate; this one keeps kernel calls few and as
    large as the cap allows, yet stops detection close to the stop."""
    low = min(err1, err2)
    probe = _STAGE2_CHUNKS[0]
    if max_errors is None or (done and not low):
        return rest
    if not done:
        return min(probe, rest)
    need = (max_errors - low) * done / low
    return min(rest, max(probe, math.ceil(1.25 * need)))


def _stop_row(e1: np.ndarray, e2: np.ndarray, need1: int, need2: int) -> int | None:
    """Rows of a slice up to and including the first one at which source 1
    has ``need1`` more errors and source 2 ``need2`` more, or None if the
    slice ends first."""
    hits = []
    for flags, need in ((e1, need1), (e2, need2)):
        if need > 0:
            rows = np.flatnonzero(flags)
            if rows.size < need:
                return None
            hits.append(int(rows[need - 1]) + 1)
    return max(hits, default=0)


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
    once and its ``_Stage2`` record at most once, chunk by chunk as far as
    the furthest detection slice reads.  A config counts errors up to its
    stop, the first trial T at which both sources have ``max_errors`` errors
    (None: no stop) or ``trials``, and both sources report them over T
    trials; it counts outages (selected-relay SNR below ``gamma_th``) over
    all ``trials``.  In each batch it counts outages once, over every row,
    from the best bottleneck SNR alone, then runs ``run_batch`` on
    consecutive row slices up to the one holding T.  No draw depends on
    selection, the powers, the other configs or the slicing, so each
    estimate is bit for bit the one its config gets alone."""
    if len({(c.scheme, c.mod_order, c.num_relays) for c in configs}) != 1:
        raise ValueError("a group needs one or more configs, all of one scheme, PSK order and relay count")
    if gamma_th is not None and not gamma_th >= 0:  # NaN fails the comparison too
        raise ValueError("gamma_th must be nonnegative")
    if max_errors is not None and not _is_int(max_errors, 1):
        raise ValueError(f"max_errors must be None or an integer >= 1, got {max_errors!r}")
    n = len(configs)
    cap = max(1, _DETECT_ELEMENTS // configs[0].mod_order)  # rows of one detection call
    err1, err2, done, below = [0] * n, [0] * n, [0] * n, [0] * n
    counting = [ser] * n
    for rng, size in _batches(seed, trials):
        gb = sample_gains(configs[0], rng, size)
        stage2 = _stage2_buffers(configs[0], size) if any(counting) else None
        drawn = 0  # rows of stage 2 drawn so far
        for k in range(n):
            if gamma_th is not None:
                below[k] += int(np.count_nonzero(_select(configs[k], gb, index=False)[1] < gamma_th))
            lo = 0
            while counting[k] and lo < size:
                hi = lo + _next_slice(done[k], err1[k], err2[k], max_errors, min(size - lo, cap))
                while drawn < hi:  # draw the chunks this slice reads into
                    end = next((e for e in _STAGE2_CHUNKS if drawn < e < size), size)
                    _draw_stage2(configs[0], stage2, drawn, end, rng)
                    drawn = end
                e1, e2 = run_batch(configs[k], *_rows(gb, stage2, lo, hi))
                stop = None if max_errors is None else _stop_row(e1, e2, max_errors - err1[k], max_errors - err2[k])
                counting[k] = stop is None
                used = hi - lo if stop is None else stop
                err1[k] += int(np.count_nonzero(e1[:used]))
                err2[k] += int(np.count_nonzero(e2[:used]))
                done[k] += used
                del e1, e2  # free this slice's arrays before the next runs
                lo = hi
        del gb, stage2  # free this batch before the next is drawn
        if not any(counting) and gamma_th is None:
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
    """Per-source SER at the config's powers over the trials up to the first
    at which both sources have ``max_errors`` errors (None: all ``trials``),
    as ``estimate_group`` counts it: a group of one."""
    return estimate_group([config], trials, seed, max_errors=max_errors)[0][0]


def sample_best_snr(config: SystemConfig, trials: int, seed: int) -> np.ndarray:
    """Selection-bottleneck SNR of the chosen relay for ``trials`` fading
    draws (no symbols are transmitted), from the call that counts outage."""
    gains = (sample_gains(config, rng, size) for rng, size in _batches(seed, trials))
    return np.concatenate([_select(config, gb, index=False)[1] for gb in gains])


def estimate_outage(config: SystemConfig, gamma_th: float, trials: int, seed: int) -> float:
    """Fraction of fading draws whose selected-relay SNR falls below gamma_th:
    a group of one."""
    return estimate_group([config], trials, seed, ser=False, gamma_th=gamma_th)[0][1]
