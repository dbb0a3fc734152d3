"""Best-relay selection in the two-source multiple-access relay channel:
closed-form SER/outage analysis, symbol-level Monte Carlo cross-validation,
and constrained power allocation."""

__version__ = "0.5.0"

from .montecarlo import estimate_ser
