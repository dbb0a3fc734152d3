"""Command-line experiment runner.

Configuration comes from an optional key=value file plus flags; flags win.
Exit codes: 0 success, 1 invalid spec or command line, 2 runtime failure.
"""

from __future__ import annotations

import argparse
import ctypes
import dataclasses
import functools
import sys

from .experiment import (
    ExperimentSpec,
    parse_field,
    run_experiment,
    spec_from_text,
    validate_spec,
)

__all__ = ["build_parser", "main", "entry"]

# The most threads a sweep may ask for.  A constant, not the core count, so
# that a command line runs the same on any machine.
_MAX_WORKERS = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        # a bad command line is a bad spec: main exits 1, where argparse exits 2
        raise ValueError(message)


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="marcsim",
        description="Relay-selection sweeps for the two-source multiple-access "
        "relay channel; writes one CSV plus a metadata sidecar.",
    )
    p.add_argument("--config", help="key=value spec file; flags override it")
    # each spec flag stores its raw text under the ExperimentSpec field name
    p.add_argument("--figure", help="fig2 | fig3 | fig4 | fig5 | custom")
    p.add_argument("--scheme", dest="schemes", help="comma list: anc,df")
    p.add_argument("--relays", dest="relay_counts", help="comma list of relay counts, e.g. 1,2,5,10")
    p.add_argument("--snr", dest="snr_points_db", help='comma list in dB, or "start:stop:step"')
    p.add_argument("--mod", dest="mod_orders", help="comma list of PSK orders, e.g. 2,8")
    p.add_argument("--trials", help="Monte Carlo trials per cell")
    p.add_argument("--seed", help="master seed")
    p.add_argument("--gamma-th", dest="gamma_th", help="outage threshold")
    p.add_argument("--out", dest="output_path", help="output CSV path")
    # not a spec field: the worker count does not change the output bytes
    p.add_argument("--workers", default="1", help=f"parallel group threads, in one process (1 to {_MAX_WORKERS})")
    return p


def _spec_from_args(args: argparse.Namespace) -> ExperimentSpec:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            spec = spec_from_text(fh.read())
    else:
        spec = ExperimentSpec()
    for field in dataclasses.fields(ExperimentSpec):
        raw = getattr(args, field.name)
        if raw is not None:
            setattr(spec, field.name, parse_field(field.name, raw))
    return spec


def _parse_workers(raw: str) -> int:
    try:
        workers = int(raw)
    except ValueError as exc:
        raise ValueError(f"workers: {exc}") from None
    if not 1 <= workers <= _MAX_WORKERS:
        raise ValueError(f"workers: must be an integer from 1 to {_MAX_WORKERS}, got {workers}")
    return workers


# glibc mallopt(3) parameters and the values main() gives them.  The Monte
# Carlo kernel frees multi-MB temporaries on every batch; by default glibc
# returns them to the OS and the next batch faults them in again.  The mmap
# threshold is glibc's own 64-bit cap for its dynamic threshold, the trim
# threshold is twice it (the ratio of glibc's dynamic rule), and one arena
# keeps the --workers threads from each holding its own high-water mark.
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
_MALLOC_SETTINGS = (
    (_M_MMAP_THRESHOLD, 32 << 20),
    (_M_TRIM_THRESHOLD, 64 << 20),
    (_M_ARENA_MAX, 1),
)


@functools.cache
def _keep_freed_memory() -> None:
    """Set the allocator policy of a CLI process, once.  Results do not
    depend on it; it is a no-op where the C library has no mallopt."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):  # no such symbol, or no dlopen(NULL)
        return
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    for param, value in _MALLOC_SETTINGS:
        mallopt(param, value)


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        spec = _spec_from_args(args)
        workers = _parse_workers(args.workers)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    result = validate_spec(spec)
    if not result.ok:
        for err in result.errors:
            print(f"invalid spec: {err}", file=sys.stderr)
        return 1
    for warning in result.warnings:
        print(f"warning: {warning}", file=sys.stderr)

    _keep_freed_memory()
    try:
        out = run_experiment(result.spec, workers=workers)
    except Exception as exc:  # CLI boundary: report and exit 2
        print(f"runtime failure: {exc}", file=sys.stderr)
        return 2
    print(f"wrote {len(out.rows)} rows to {out.csv_path} (sidecar {out.meta_path})")
    return 0


def entry() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    raise SystemExit(main())
