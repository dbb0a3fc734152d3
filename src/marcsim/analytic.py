"""The analytic surrogate: exponential SNR rates, order statistics of the
selected-relay SNR, and MGF-based error analysis.

Each link SNR class of a scenario is modeled as exponential, at a rate that
its powers imply (``bottleneck_rate``, ``ser_inputs``), and the selected
relay's SNR as the maximum of N i.i.d. exponential variables.  Its CDF gives
the outage probability; its MGF, integrated from the density term by term,
gives the average symbol error rate for MPSK (adaptive quadrature of the MGF
product with the direct path, plus an additive closed-form variant kept for
discrepancy reporting).

The quadrature is QUADPACK's QAGS: 21-point Gauss–Kronrod rules on a
bisected interval, with Wynn's epsilon-algorithm extrapolation.  It runs as a
bit-exact pure-Python port (``_quadpack.qags``), whose value and error
estimate equal those of ``scipy.integrate.quad``, so the package needs only
numpy.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from ._quadpack import qags
from .model import Scheme, SystemConfig, _gammas, _require_positive, _require_relay_count

__all__ = [
    "BestRelayDistribution",
    "QuadratureConvergenceError",
    "bottleneck_rate",
    "ser_inputs",
    "mpsk_g",
    "best_cdf",
    "best_mgf",
    "integral_I",
    "ser_quadrature",
    "ser_closed_form",
]

# Alternating binomial sums are numerically meaningless past this order;
# the product-form CDF carries no such limit.
_MAX_SERIES_ORDER = 64

# Absolute error that ser_quadrature asks of QAGS and requires of its result
_SER_TOL = 1e-10


class QuadratureConvergenceError(RuntimeError):
    """Adaptive quadrature did not reach the requested tolerance."""

    def __init__(self, achieved: float, requested: float):
        self.achieved = achieved
        self.requested = requested
        super().__init__(
            f"quadrature reached absolute error {achieved:.3e}, requested {requested:.3e}"
        )


@dataclasses.dataclass(frozen=True)
class BestRelayDistribution:
    """Max of ``num_relays`` i.i.d. exponential SNRs with rate ``eta``."""

    num_relays: int
    eta: float

    def __post_init__(self):
        _require_relay_count(self.num_relays)
        _require_positive("eta", self.eta)


def _hop_rates(config: SystemConfig) -> tuple[float, float]:
    """Exponential rates of one source's relay path: the source-side hop and
    the relay->destination hop (0.0 under DF-NC, whose per-relay SNR is the
    source->relay link alone)."""
    gamma_s, gamma_r = _gammas(config)
    if config.scheme is Scheme.ANC:
        return 1.0 / gamma_s, 1.0 / gamma_r
    return 1.0 / gamma_r, 0.0


def bottleneck_rate(config: SystemConfig) -> float:
    """Exponential rate of min(per-source SNRs) at one relay.

    The min over the two sources doubles the source-side rate; the
    relay->destination hop is shared and enters once.  Exact for DF-NC,
    a high-SNR approximation for ANC.
    """
    source_side, relay_side = _hop_rates(config)
    return 2.0 * source_side + relay_side


def ser_inputs(config: SystemConfig) -> tuple[BestRelayDistribution, float]:
    """The SER chain's inputs at the configured powers: the selected relay's
    law at the per-relay end-to-end rate (for ANC the high-SNR
    sum-of-reciprocals form; for DF-NC the single-hop form), and the rate of
    the source->destination SNR."""
    source_side, relay_side = _hop_rates(config)
    gamma_s, _ = _gammas(config)
    return BestRelayDistribution(config.num_relays, source_side + relay_side), 1.0 / gamma_s


def mpsk_g(mod_order: int) -> float:
    """MPSK SER constant sin^2(pi/M); equals 1 for BPSK."""
    if mod_order < 2:
        raise ValueError("mod_order must be >= 2")
    return math.sin(math.pi / mod_order) ** 2


def _float_binom(n: int, k: int) -> float:
    # multiplicative recurrence, exact in floats for the orders we accept
    out = 1.0
    for i in range(1, k + 1):
        out *= (n - i + 1) / i
    return out


def best_cdf(dist: BestRelayDistribution, gamma):
    """P(best SNR <= gamma) = (1 - exp(-eta*gamma))^N, elementwise."""
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):  # NaN fails the comparison too
        raise ValueError("gamma must be nonnegative")
    out = (-np.expm1(-dist.eta * g)) ** dist.num_relays
    return out if out.ndim else float(out)


def _mgf_terms(dist: BestRelayDistribution) -> list[tuple[float, float]]:
    # The (numerator, pole) pair of each of best_mgf's N terms; none depends
    # on s, so a quadrature builds them once, not at every node.  Every
    # alternating binomial sum of the package is built here.
    if dist.num_relays > _MAX_SERIES_ORDER:
        raise ValueError(
            f"alternating series is numerically unstable beyond N={_MAX_SERIES_ORDER}; "
            f"best_cdf has no order limit, but the SER chain has no form past N={_MAX_SERIES_ORDER} yet"
        )
    eta = dist.eta
    return [
        (_float_binom(dist.num_relays, n) * n * (-1.0) ** (n - 1) * eta, n * eta)
        for n in range(1, dist.num_relays + 1)
    ]


def best_mgf(dist: BestRelayDistribution, s: float) -> float:
    """E[exp(-s * best SNR)] as an alternating sum over the N order-statistic
    terms; integrating the density term by term puts the n-th pole at
    s = -n*eta."""
    terms = _mgf_terms(dist)
    if not s >= 0:
        raise ValueError(f"s must be nonnegative, got {s!r}")
    out = 0.0
    for num, pole in terms:
        out += num / (s + pole)
    return out


def integral_I(c: float) -> float:
    """(1/pi) * integral of sin^2(t)/(sin^2(t)+c) over (0, pi/2),
    in closed form 0.5*(1 - sqrt(c/(1+c)))."""
    if not c >= 0:
        raise ValueError(f"c must be nonnegative, got {c!r}")
    return 0.5 * (1.0 - math.sqrt(c / (1.0 + c)))


def ser_quadrature(dist: BestRelayDistribution, direct_eta: float, mod_order: int) -> float:
    """Average MPSK SER of the selected relay path combined with the direct
    path, by adaptive quadrature of the MGF product over (0, (M-1)pi/M].

    The quadrature is QAGS (21-point Gauss–Kronrod, bisection of the interval
    with the largest error, epsilon-extrapolation) to absolute error 1e-10
    and relative error 1e-12 in at most 200 subintervals, through
    ``_quadpack.qags``, a bit-exact port of QUADPACK's ``dqagse``.  Raises
    QuadratureConvergenceError when its error estimate exceeds 1e-10, and
    ValueError when the value is negative: the alternating MGF series has
    then cancelled below its own rounding."""
    _require_positive("direct_eta", direct_eta)
    g = mpsk_g(mod_order)
    upper = (mod_order - 1) * math.pi / mod_order
    terms = _mgf_terms(dist)

    def integrand(theta: float) -> float:
        # scalar float arithmetic: np.square/np.power differ from ** 2 in the
        # last bit at some nodes, which would move the pinned SER bits
        sin2 = math.sin(theta) ** 2
        if sin2 == 0.0:
            return 0.0
        s = g / sin2  # > 0, the range best_mgf checks
        mgf = 0.0  # best_mgf(dist, s), summed as it sums
        for num, pole in terms:
            mgf += num / (s + pole)
        # times the direct link's exponential MGF
        return mgf * (direct_eta / (s + direct_eta))

    value, abserr = qags(integrand, 0.0, upper, _SER_TOL, 1e-12, 200)
    value /= math.pi
    abserr /= math.pi
    if abserr > _SER_TOL:
        raise QuadratureConvergenceError(abserr, _SER_TOL)
    if value < 0.0:
        raise ValueError(f"SER quadrature gave {value!r} < 0: the alternating series lost its sign")
    return value


def ser_closed_form(dist: BestRelayDistribution, direct_eta: float) -> float:
    """BPSK: the paper's alternating sum of (I(c1) + I(c2)) terms with
    c1 = g/eta_relay and c2 = g/eta_direct.  The term does not depend on n
    and the weights C(N, n)(-1)^(n-1) sum to 1, so the sum is exactly
    I(c1) + I(c2) at any N, and is evaluated by that identity.

    The additive combination of the two branch integrals is inconsistent with
    the multiplicative MGF product in the exact integral;
    discrepancy.additive_ser_discrepancy measures the gap to ser_quadrature,
    which is the ground truth everywhere in this package.
    """
    _require_positive("direct_eta", direct_eta)
    g = mpsk_g(2)
    return integral_I(g / dist.eta) + integral_I(g / direct_eta)
