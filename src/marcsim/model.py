"""Scenario configuration and exponential SNR rates for a two-source
multiple-access relay channel (MARC).

Two sources transmit simultaneously to N relays and one destination; a single
relay is selected (max-min of the two per-source SNRs) to forward in the
second slot, either amplifying the analog superposition (ANC) or decoding and
network-coding the symbol pair (DF-NC).

Every link is unit-variance Rayleigh fading and the receiver noise has unit
power (N0 = 1), so a power in watts is also an SNR: the SNR axis of the
figures is the total power budget over the noise.
"""

from __future__ import annotations

import dataclasses
import enum
import math

__all__ = [
    "Scheme",
    "SystemConfig",
    "RateParams",
    "compute_rate_params",
    "bottleneck_rate",
]


class Scheme(enum.Enum):
    """Forwarding protocol used by the selected relay."""

    ANC = "anc"
    DF_NC = "df"


def _require_positive(name: str, value) -> None:
    if not (math.isfinite(value) and value > 0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")


def _require_relay_count(num_relays) -> None:
    # bool is an int subclass; True must not pass as one relay
    if isinstance(num_relays, bool) or not isinstance(num_relays, int) or num_relays < 1:
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
        m = self.mod_order
        if not isinstance(m, int) or m < 2 or (m & (m - 1)) != 0:
            raise ValueError(f"mod_order must be a power of two >= 2, got {m!r}")
        if not isinstance(self.scheme, Scheme):
            raise ValueError(f"scheme must be a Scheme, got {self.scheme!r}")


@dataclasses.dataclass(frozen=True)
class RateParams:
    """Exponential rate parameters of the link SNR classes.

    eta_relay_path is the rate of the per-relay end-to-end SNR (for ANC the
    high-SNR sum-of-reciprocals form; for DF-NC the single-hop form) and
    eta_direct the rate of the source->destination SNR.
    """

    eta_relay_path: float
    eta_direct: float

    def __post_init__(self):
        for f in dataclasses.fields(self):
            _require_positive(f.name, getattr(self, f.name))


def _gammas(config: SystemConfig) -> tuple[float, float]:
    gamma_s = config.p_source / (1.0 + config.p_source / config.p_relay)
    return gamma_s, config.p_relay


def _hop_rates(config: SystemConfig) -> tuple[float, float]:
    """Exponential rates of one source's relay path: the source-side hop and
    the relay->destination hop (0.0 under DF-NC, whose per-relay SNR is the
    source->relay link alone)."""
    gamma_s, gamma_r = _gammas(config)
    if config.scheme is Scheme.ANC:
        return 1.0 / gamma_s, 1.0 / gamma_r
    return 1.0 / gamma_r, 0.0


def compute_rate_params(config: SystemConfig) -> RateParams:
    """Rate parameters implied by the configured powers."""
    source_side, relay_side = _hop_rates(config)
    gamma_s, _ = _gammas(config)
    return RateParams(source_side + relay_side, 1.0 / gamma_s)


def bottleneck_rate(config: SystemConfig) -> float:
    """Exponential rate of min(per-source SNRs) at one relay.

    The min over the two sources doubles the source-side rate; the
    relay->destination hop is shared and enters once.  Exact for DF-NC,
    a high-SNR approximation for ANC.
    """
    source_side, relay_side = _hop_rates(config)
    return 2.0 * source_side + relay_side
