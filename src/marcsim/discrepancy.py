"""Measured gaps between closed-form shortcuts and their numeric oracles.

Three closed forms are kept verbatim for documentation but are never trusted
as ground truth: the shared-pole MGF variant (evaluated here), the additive
SER closed form, and the cube-root power-allocation formula.  Each collector
here evaluates one of them against its oracle and returns the measured
magnitude, so every run states explicitly how far the shortcut sits from the
truth instead of silently substituting it.
"""

from __future__ import annotations

import dataclasses
import functools

from .analytic import (
    BestRelayDistribution,
    _mgf_terms,
    best_mgf,
    ser_closed_form,
    ser_quadrature,
)
from .power import closed_form_source_power, numeric_allocation, ser_for_powers
from .model import Scheme

__all__ = [
    "DiscrepancyRecord",
    "mgf_pole_discrepancy",
    "additive_ser_discrepancy",
    "allocation_discrepancy",
    "collect_all",
]

# The reference point at which every run's ledger is measured
_NUM_RELAYS = 2
_ETA = 1.0  # relay-path rate
_ETA_DIRECT = 0.5
_P_TOTAL = 3.0
_B = 1.0  # cube-root formula coefficient


@dataclasses.dataclass(frozen=True)
class DiscrepancyRecord:
    """One closed form measured against its oracle."""

    name: str
    printed: float
    oracle: float
    magnitude: float
    note: str

    def as_kv(self) -> str:
        return (
            f"discrepancy.{self.name}=printed:{self.printed!r}"
            f",oracle:{self.oracle!r},magnitude:{self.magnitude!r},note:{self.note}"
        )


def mgf_pole_discrepancy() -> DiscrepancyRecord:
    """Shared-pole MGF variant vs best_mgf, whose n-th term has its pole at
    s = -n*eta (the form that integrates the density correctly).  The variant
    places every pole at s = -eta; it is not a valid MGF for N >= 2.  Reported
    at s = 0, where a valid MGF must equal 1 and the variant collapses to 0."""
    dist = BestRelayDistribution(_NUM_RELAYS, _ETA)
    terms = _mgf_terms(dist)
    s_grid = [0.25 * k for k in range(41)]  # 0..10, exactly np.linspace(0, 10, 41)
    shared = []
    for s in s_grid:
        v = 0.0
        for num, _pole in terms:
            v += num / (s + _ETA)
        shared.append(v)
    printed = shared[0]
    oracle = best_mgf(dist, 0.0)
    sup = max(abs(v - best_mgf(dist, s)) for s, v in zip(s_grid, shared))
    return DiscrepancyRecord(
        "mgf_shared_pole",
        printed,
        oracle,
        sup,
        f"sup over s in [0,10] at N={_NUM_RELAYS}; shared-pole value at s=0 is {printed!r}",
    )


def additive_ser_discrepancy() -> DiscrepancyRecord:
    """Additive closed-form SER vs the quadrature of the MGF product."""
    dist = BestRelayDistribution(_NUM_RELAYS, _ETA)
    printed = ser_closed_form(dist, _ETA_DIRECT)
    oracle = ser_quadrature(dist, _ETA_DIRECT, 2)
    return DiscrepancyRecord(
        "ser_additive_closed_form",
        printed,
        oracle,
        abs(printed - oracle),
        f"N={_NUM_RELAYS}, eta_relay={_ETA}, eta_direct={_ETA_DIRECT}",
    )


def allocation_discrepancy() -> DiscrepancyRecord:
    """Cube-root allocation formula vs the golden-section numeric optimum."""
    raw = closed_form_source_power(_P_TOTAL, _B)
    objective = functools.partial(ser_for_powers, num_relays=_NUM_RELAYS, mod_order=2, scheme=Scheme.ANC)
    opt = numeric_allocation(_P_TOTAL, objective)
    feasible = 0.0 < raw < _P_TOTAL / 2.0
    note = f"p_total={_P_TOTAL}, b={_B}; formula feasible: {feasible}"
    if not feasible:
        note += " (raw value outside (0, p_total/2))"
    return DiscrepancyRecord(
        "power_allocation_closed_form",
        raw,
        opt.p_source,
        abs(raw - opt.p_source),
        note,
    )


@functools.cache
def collect_all() -> tuple[DiscrepancyRecord, ...]:
    """All three records at reference parameters.  They have no inputs, so
    each process computes them once.  A CLI process runs one sweep, so the
    cache pays off only where one process runs several sweeps (a library
    caller of run_experiment, the test suite, perfbench's sweep-then-resume
    cycles), each of which would otherwise spend about 97 QAGS quadratures
    on an identical `.meta` ledger."""
    return (
        mgf_pole_discrepancy(),
        additive_ser_discrepancy(),
        allocation_discrepancy(),
    )
