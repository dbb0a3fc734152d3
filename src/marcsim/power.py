"""SER-minimizing split of a total power budget between the two sources and
the selected relay.

The authoritative allocation is numeric: a coarse grid scan followed by
golden-section refinement of the quadrature SER.  The cube-root closed form
is evaluated as written for documentation and discrepancy reporting; at
typical parameters it lands far outside the feasible source-power range.
First-order optimality of the numeric split is checked by finite differences
in the test suite, not here.
"""

from __future__ import annotations

import dataclasses
import math
import warnings
from typing import Callable

import numpy as np

from .analytic import ser_inputs, ser_quadrature
from .model import Scheme, SystemConfig, _require_positive

__all__ = [
    "PowerSplit",
    "MultimodalObjectiveWarning",
    "closed_form_source_power",
    "allocation_edges",
    "numeric_allocation",
    "ser_for_powers",
]

_CONSTRAINT_RTOL = 1e-9
# numeric_allocation's pre-scan grid size and relative golden-section tolerance
_GRID_POINTS = 64
_TOL_REL = 1e-8
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


class MultimodalObjectiveWarning(UserWarning):
    """Grid scan found separated near-equal minima; global grid winner returned."""


@dataclasses.dataclass(frozen=True)
class PowerSplit:
    """A (p_source, p_relay) pair satisfying 2*p_source + p_relay = p_total."""

    p_source: float
    p_relay: float
    p_total: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _require_positive(f.name, getattr(self, f.name))
        if abs(2.0 * self.p_source + self.p_relay - self.p_total) > _CONSTRAINT_RTOL * self.p_total:
            raise ValueError(
                f"2*p_source + p_relay = {2 * self.p_source + self.p_relay!r} "
                f"violates p_total={self.p_total!r}"
            )

    @classmethod
    def from_source(cls, p_source: float, p_total: float) -> "PowerSplit":
        return cls(p_source, p_total - 2.0 * p_source, p_total)

    @classmethod
    def equal(cls, p_total: float) -> "PowerSplit":
        """The equal-split baseline p_source = p_relay = p_total/3."""
        third = p_total / 3.0
        return cls(third, p_total - 2.0 * third, p_total)


def _cbrt(x: float) -> float:
    return math.copysign(abs(x) ** (1.0 / 3.0), x)


def closed_form_source_power(p_total: float, b: float) -> float:
    """Raw evaluation of the cube-root source-power formula, as written.

    Real cube roots are used for negative bases.  No feasibility is implied;
    discrepancy.allocation_discrepancy tests the value against (0, p_total/2).
    """
    _require_positive("p_total", p_total)
    _require_positive("b", b)
    p = p_total
    inner = (
        -486.0 * p * b
        - 756.0 * p**2 * b**2
        - 81.0
        - 402.0 * p**3 * b**3
        - 51.0 * p * b**4
    )
    base = -135.0 * p * b - 9.0 * p**2 * b**2 + 91.0 * p**3 * b**3 - 27.0 + 12.0 * p * _cbrt(inner)
    a = _cbrt(base)
    bb = 30.0 * p * b + 25.0 * p**2 * b**2 + 9.0
    cc = (-3.0 + 7.0 * p * b) / b
    return (1.0 / (4.0 * b)) * (a + bb / a + cc)


def ser_for_powers(
    p_source: float,
    p_relay: float,
    num_relays: int,
    mod_order: int,
    scheme: Scheme,
) -> float:
    """Quadrature SER of the scenario at an arbitrary (p_source, p_relay)
    pair; the rate structure is recomputed per candidate since it depends on
    both powers.  Bind the scenario with functools.partial to get an
    allocation objective."""
    cfg = SystemConfig(num_relays, p_source, p_relay, mod_order=mod_order, scheme=scheme)
    return ser_quadrature(*ser_inputs(cfg), mod_order)


def allocation_edges(p_total: float) -> tuple[PowerSplit, PowerSplit]:
    """The two extreme splits that numeric_allocation evaluates, the ends of
    its pre-scan grid, 1e-6*p_total inside the feasible source powers.  Every
    model rate (1/gamma_s, 1/gamma_r and their positive combinations) is
    convex in p_source, so over the allocator's splits it peaks at one of
    these two."""
    eps = 1e-6 * p_total
    return PowerSplit.from_source(eps, p_total), PowerSplit.from_source(p_total / 2.0 - eps, p_total)


def _golden_section(f, lo: float, hi: float, tol: float) -> float:
    a, b = lo, hi
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = f(c), f(d)
    while (b - a) > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - _INV_PHI * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_PHI * (b - a)
            fd = f(d)
    return 0.5 * (a + b)


def numeric_allocation(
    p_total: float, objective: Callable[[float, float], float]
) -> PowerSplit:
    """Minimize ``objective(p_source, p_relay)`` over feasible splits: a
    _GRID_POINTS grid pre-scan to locate the basin, then golden-section
    refinement to _TOL_REL * p_total.

    Separated grid minima within 1e-12 of the best trigger a
    MultimodalObjectiveWarning and the global grid winner's basin is used.
    """
    _require_positive("p_total", p_total)
    f = lambda ps: objective(ps, p_total - 2.0 * ps)
    lo, hi = allocation_edges(p_total)
    grid = np.linspace(lo.p_source, hi.p_source, _GRID_POINTS).tolist()
    values = np.array([f(ps) for ps in grid])
    best = int(np.argmin(values))

    interior = np.arange(1, _GRID_POINTS - 1)
    local_min = interior[
        (values[interior] <= values[interior - 1]) & (values[interior] <= values[interior + 1])
    ]
    near_best = [i for i in local_min if values[i] - values[best] <= 1e-12]
    if len(near_best) > 1 and (max(near_best) - min(near_best)) > 1:
        warnings.warn(
            "objective has separated near-equal minima on the pre-scan grid",
            MultimodalObjectiveWarning,
        )

    lo = grid[max(best - 1, 0)]
    hi = grid[min(best + 1, _GRID_POINTS - 1)]
    p_source = _golden_section(f, lo, hi, _TOL_REL * p_total)
    return PowerSplit.from_source(p_source, p_total)

