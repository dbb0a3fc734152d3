"""Order statistics of the selected-relay SNR and MGF-based error analysis.

The selected relay's SNR is modeled as the maximum of N i.i.d. exponential
variables.  Its CDF gives the outage probability; its MGF, integrated from the
density term by term, gives the average symbol error rate for MPSK (adaptive
quadrature of the MGF product with the direct path, plus an additive
closed-form variant kept for discrepancy reporting).
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
from scipy.integrate import quad

__all__ = [
    "BestRelayDistribution",
    "QuadratureConvergenceError",
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
        if not isinstance(self.num_relays, int) or self.num_relays < 1:
            raise ValueError(f"num_relays must be an integer >= 1, got {self.num_relays!r}")
        if not (math.isfinite(self.eta) and self.eta > 0):
            raise ValueError(f"eta must be positive and finite, got {self.eta!r}")


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


def _check_series_order(n: int) -> None:
    if n > _MAX_SERIES_ORDER:
        raise ValueError(
            f"alternating series is numerically unstable beyond N={_MAX_SERIES_ORDER}; "
            "use the product-form functions"
        )


def best_cdf(dist: BestRelayDistribution, gamma):
    """P(best SNR <= gamma) = (1 - exp(-eta*gamma))^N, elementwise."""
    g = np.asarray(gamma, dtype=float)
    if not np.all(g >= 0):  # NaN fails the comparison too
        raise ValueError("gamma must be nonnegative")
    out = (-np.expm1(-dist.eta * g)) ** dist.num_relays
    return out if out.ndim else float(out)


def _mgf_terms(dist: BestRelayDistribution) -> list[tuple[float, float]]:
    # The (numerator, pole) pair of each of best_mgf's N terms; none depends
    # on s, so a quadrature builds them once, not at every node.
    _check_series_order(dist.num_relays)
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


def _check_direct_eta(direct_eta: float) -> None:
    if not (math.isfinite(direct_eta) and direct_eta > 0):
        raise ValueError(f"direct_eta must be positive and finite, got {direct_eta!r}")


def ser_quadrature(
    dist: BestRelayDistribution,
    direct_eta: float,
    mod_order: int,
    tol: float = 1e-10,
) -> float:
    """Average MPSK SER of the selected relay path combined with the direct
    path, by adaptive quadrature of the MGF product over (0, (M-1)pi/M]."""
    _check_direct_eta(direct_eta)
    g = mpsk_g(mod_order)
    upper = (mod_order - 1) * math.pi / mod_order
    terms = _mgf_terms(dist)

    def integrand(theta: float) -> float:
        sin2 = math.sin(theta) ** 2
        if sin2 == 0.0:
            return 0.0
        s = g / sin2  # > 0, the range best_mgf checks
        mgf = 0.0  # best_mgf(dist, s), summed as it sums
        for num, pole in terms:
            mgf += num / (s + pole)
        # times the direct link's exponential MGF
        return mgf * (direct_eta / (s + direct_eta))

    value, abserr = quad(integrand, 0.0, upper, epsabs=tol, epsrel=1e-12, limit=200)
    value /= math.pi
    abserr /= math.pi
    if abserr > tol:
        raise QuadratureConvergenceError(abserr, tol)
    return value


def ser_closed_form(dist: BestRelayDistribution, direct_eta: float) -> float:
    """BPSK: alternating sum of (I(c1) + I(c2)) terms with c1 = g/eta_relay
    and c2 = g/eta_direct, evaluated as written.

    The additive combination of the two branch integrals is inconsistent with
    the multiplicative MGF product in the exact integral;
    discrepancy.additive_ser_discrepancy measures the gap to ser_quadrature,
    which is the ground truth everywhere in this package.
    """
    _check_direct_eta(direct_eta)
    _check_series_order(dist.num_relays)
    g = mpsk_g(2)
    term = integral_I(g / dist.eta) + integral_I(g / direct_eta)
    value = 0.0
    for n in range(1, dist.num_relays + 1):
        value += _float_binom(dist.num_relays, n) * (-1.0) ** (n - 1) * term
    return value
