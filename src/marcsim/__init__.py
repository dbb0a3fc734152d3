"""Best-relay selection in the two-source multiple-access relay channel:
closed-form SER/outage analysis, symbol-level Monte Carlo cross-validation,
and constrained power allocation."""

__version__ = "0.8.1"

from .montecarlo import estimate_ser
