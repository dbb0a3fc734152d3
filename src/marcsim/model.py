"""Scenario configuration of a two-source multiple-access relay channel
(MARC).

Two sources transmit simultaneously to N relays and one destination; a single
relay is selected (max-min of the two per-source SNRs) to forward in the
second slot, either amplifying the analog superposition (ANC) or decoding and
network-coding the symbol pair (DF-NC).

Every link is unit-variance Rayleigh fading and the receiver noise has unit
power (N0 = 1), so a power in watts is also an SNR: the SNR axis of the
figures is the total power budget over the noise.  The exponential rates
that the analytic surrogate derives from a scenario live in ``analytic``.
"""

from __future__ import annotations

import dataclasses
import enum
import math
import numbers

__all__ = ["Scheme", "SystemConfig"]


class Scheme(enum.Enum):
    """Forwarding protocol used by the selected relay."""

    ANC = "anc"
    DF_NC = "df"


def _require_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


# The input rules that a spec and a scenario share.  bool is an int
# subclass: True must pass neither as 1 nor as 1.0.
def _is_int(v, least: int) -> bool:
    return isinstance(v, int) and not isinstance(v, bool) and v >= least


def _is_real(v, least: float = -math.inf) -> bool:
    """Whether ``v`` is a finite real number >= ``least``."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool) and math.isfinite(v) and v >= least


def _is_psk_order(m) -> bool:
    return _is_int(m, 2) and m & (m - 1) == 0


def _require_relay_count(num_relays) -> None:
    if not _is_int(num_relays, 1):
        raise ValueError(f"num_relays must be an integer >= 1, got {num_relays!r}")


@dataclasses.dataclass(frozen=True)
class SystemConfig:
    """All scenario parameters for one run.

    Powers are linear watts; (p_source, p_relay) is the operating point that
    every analytic and simulated quantity of the scenario is computed at.
    """

    num_relays: int
    p_source: float
    p_relay: float
    mod_order: int = 2
    scheme: Scheme = Scheme.ANC

    def __post_init__(self):
        _require_relay_count(self.num_relays)
        _require_positive("p_source", self.p_source)
        _require_positive("p_relay", self.p_relay)
        if not _is_psk_order(self.mod_order):
            raise ValueError(f"mod_order must be a power of two >= 2, got {self.mod_order!r}")
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")


def _gammas(config: SystemConfig) -> tuple[float, float]:
    gamma_s = config.p_source / (1.0 + config.p_source / config.p_relay)
    return gamma_s, config.p_relay

