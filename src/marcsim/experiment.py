"""Experiment runner: sweeps of the four standard curve families, written as
CSV with a metadata sidecar.

One fixed schema serves every figure:

    scheme,mod_order,num_relays,snr_db,ser_mc,ser_ci,ser_quadrature,
    ser_paper_closed,outage_mc,outage_analytic,p_s,p_r,flags

Inapplicable cells stay empty.  Rows are keyed by their sweep cell and
journaled as their group completes, so an interrupted sweep resumes there;
the final CSV is always written in deterministic cell order with shortest
round-trip float formatting, making runs byte-identical for a given spec and
seed regardless of worker count.  The cells of one (scheme, M, N), across
SNR and power split, form a group that shares its Monte Carlo draws (common
random numbers).  Every sweep runs on one pool of threads of the one
process, and each group with a pending cell is one job on it.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import functools
import hashlib
import math
import os
import sys
from typing import NamedTuple

import numpy as np

from . import __version__, discrepancy, montecarlo
from .analytic import (
    _MAX_SERIES_ORDER,
    BestRelayDistribution,
    best_cdf,
    ser_closed_form,
    ser_quadrature,
)
from .model import Scheme, SystemConfig, _gammas, bottleneck_rate, compute_rate_params
from .montecarlo import estimate_group
from .power import PowerSplit, allocation_edges, numeric_allocation, ser_for_powers

__all__ = [
    "CSV_HEADER",
    "ExperimentSpec",
    "ValidationResult",
    "SpecValidationError",
    "validate_spec",
    "spec_to_text",
    "spec_from_text",
    "parse_field",
    "run_experiment",
]

CSV_HEADER = (
    "scheme,mod_order,num_relays,snr_db,ser_mc,ser_ci,ser_quadrature,"
    "ser_paper_closed,outage_mc,outage_analytic,p_s,p_r,flags"
)


class _Figure(NamedTuple):
    ser: bool                 # each cell fills the SER columns
    outage: bool              # each cell fills the outage columns
    allocs: tuple[str, ...]   # power splits, one cell each per point; "" = equal, unflagged
    schemes: list[Scheme]     # default schemes
    mod_orders: list[int]     # default PSK orders
    relay_counts: list[int]   # default relay counts


_FIGURES = {
    "fig2": _Figure(True, False, ("",), [Scheme.ANC], [2, 8], [1, 2, 3, 4, 5]),
    "fig3": _Figure(True, False, ("",), [Scheme.ANC, Scheme.DF_NC], [2], [1, 2, 5, 10]),
    "fig4": _Figure(False, True, ("",), [Scheme.ANC, Scheme.DF_NC], [2], [1, 2, 5, 10]),
    "fig5": _Figure(True, False, ("equal", "optimized"), [Scheme.ANC], [2], [1, 2, 3, 4]),
    "custom": _Figure(True, True, ("",), [Scheme.ANC], [2], [1]),
}

_DEFAULT_SNR_DB = [2.5 * k for k in range(11)]  # 0..25 dB
_DEFAULT_TRIALS = 10**6
_DEFAULT_SEED = 42
_DEFAULT_GAMMA_TH = 1.0
_TRIALS_RUNTIME_WARNING = 10**8
_MAX_SNR_POINTS = 10_000  # more points than any sweep needs: a range that long has a mistyped step


@dataclasses.dataclass
class ExperimentSpec:
    """Declarative description of one sweep; None fields take documented
    defaults in validate_spec."""

    figure: str = "custom"
    snr_points_db: list[float] | None = None
    relay_counts: list[int] | None = None
    trials: int | None = None
    seed: int | None = None
    schemes: list[Scheme] | None = None
    mod_orders: list[int] | None = None
    gamma_th: float | None = None
    output_path: str | None = None


@dataclasses.dataclass
class ValidationResult:
    spec: ExperimentSpec
    errors: list[str]
    warnings: list[str]

    @property
    def ok(self) -> bool:
        return not self.errors


class SpecValidationError(ValueError):
    """run_experiment's error for a spec that validate_spec rejects."""


def validate_spec(spec: ExperimentSpec) -> ValidationResult:
    """Fill defaults and collect every violation (never raises)."""
    errors: list[str] = []
    warnings: list[str] = []
    s = dataclasses.replace(spec)

    if s.figure not in _FIGURES:
        errors.append(f"figure: unknown value {s.figure!r}, expected one of {tuple(_FIGURES)}")
        return ValidationResult(s, errors, warnings)

    fig = _FIGURES[s.figure]
    if s.schemes is None:
        s.schemes = list(fig.schemes)
    if s.mod_orders is None:
        s.mod_orders = list(fig.mod_orders)
    if s.relay_counts is None:
        s.relay_counts = list(fig.relay_counts)
    if s.trials is None:
        s.trials = _DEFAULT_TRIALS
    if s.seed is None:
        s.seed = _DEFAULT_SEED
    if s.gamma_th is None:
        s.gamma_th = _DEFAULT_GAMMA_TH
    if s.output_path is None:
        s.output_path = f"results/{s.figure}.csv"
    if s.snr_points_db is None:
        s.snr_points_db = list(_DEFAULT_SNR_DB)

    # the analytic SER's alternating series over n = 1..N multiplies a rate
    # by up to max_n C(N, n)*n, which must stay finite; outage reads one rate
    rate_scale = 1.0
    if not s.relay_counts:
        errors.append("relay_counts: must be nonempty")
    elif any(isinstance(n, bool) or not isinstance(n, int) or n < 1 for n in s.relay_counts):
        errors.append(f"relay_counts: entries must be integers >= 1, got {s.relay_counts!r}")
    elif len(set(s.relay_counts)) < len(s.relay_counts):
        errors.append(f"relay_counts: entries must be distinct, got {s.relay_counts!r}")
    elif fig.ser and max(s.relay_counts) > _MAX_SERIES_ORDER:
        errors.append(
            f"relay_counts: SER figures allow at most {_MAX_SERIES_ORDER} relays "
            f"(the analytic SER's alternating series), got {max(s.relay_counts)}"
        )
    elif fig.ser:
        n_max = max(s.relay_counts)
        rate_scale = float(max(math.comb(n_max, n) * n for n in range(1, n_max + 1)))
    if not s.snr_points_db:
        errors.append("snr_points_db: must be nonempty")
    elif not all(math.isfinite(v) for v in s.snr_points_db):
        errors.append(f"snr_points_db: entries must be finite, got {s.snr_points_db!r}")
    elif any(b <= a for a, b in zip(s.snr_points_db, s.snr_points_db[1:])):
        errors.append("snr_points_db: must be strictly increasing")
    else:
        for snr in s.snr_points_db:
            try:
                p_total = _budget(snr)
                splits = [PowerSplit.equal(p_total)]
                if "optimized" in fig.allocs:
                    splits += allocation_edges(p_total)
                for split in splits:
                    config = SystemConfig(1, split.p_source, split.p_relay)
                    # Monte Carlo ANC numerator gamma_s*g*gamma_r*g at gains g of 1e3 (P = e^-1000)
                    gamma_s, gamma_r = _gammas(config)
                    if not math.isfinite(gamma_s * gamma_r * 1e6):
                        raise ValueError("Monte Carlo SNRs overflow")
                    # no rate the model derives from a split exceeds ANC's bottleneck rate
                    BestRelayDistribution(1, rate_scale * bottleneck_rate(config))
            except (OverflowError, ValueError) as exc:
                errors.append(f"snr_points_db: {snr!r} dB gives a split outside the model's range ({exc})")
                break
    if not s.mod_orders:
        errors.append("mod_orders: must be nonempty")
    elif any(not isinstance(m, int) or m < 2 or (m & (m - 1)) != 0 for m in s.mod_orders):
        errors.append(f"mod_orders: entries must be powers of two >= 2, got {s.mod_orders!r}")
    elif len(set(s.mod_orders)) < len(s.mod_orders):
        errors.append(f"mod_orders: entries must be distinct, got {s.mod_orders!r}")
    if not s.schemes:
        errors.append("schemes: must be nonempty")
    elif not all(isinstance(x, Scheme) for x in s.schemes):
        errors.append(f"schemes: entries must be Scheme members, got {s.schemes!r}")
    elif len(set(s.schemes)) < len(s.schemes):
        errors.append(f"schemes: entries must be distinct, got {[x.value for x in s.schemes]}")
    # bool is an int subclass; True must not pass as 1
    if isinstance(s.trials, bool) or not isinstance(s.trials, int) or s.trials < 1:
        errors.append(f"trials: must be an integer >= 1, got {s.trials!r}")
    elif s.trials > _TRIALS_RUNTIME_WARNING:
        warnings.append(f"trials: {s.trials} will take a very long time per cell")
    if isinstance(s.seed, bool) or not isinstance(s.seed, int) or s.seed < 0:
        errors.append(f"seed: must be a nonnegative integer, got {s.seed!r}")
    if isinstance(s.gamma_th, bool) or not (math.isfinite(s.gamma_th) and s.gamma_th >= 0):
        errors.append(f"gamma_th: must be a finite nonnegative number, got {s.gamma_th!r}")
    if not s.output_path:
        errors.append("output_path: must be nonempty")
    elif not os.path.basename(s.output_path) or os.path.isdir(s.output_path):
        errors.append(f"output_path: must name a file, not a directory, got {s.output_path!r}")

    return ValidationResult(s, errors, warnings)


def _budget(snr_db: float) -> float:
    """Total power of a sweep point: its SNR in linear units (N0 = 1)."""
    return 10.0 ** (snr_db / 10.0)


# -- plain-text serialization (key=value per line) --------------------------


def spec_to_text(spec: ExperimentSpec) -> str:
    def fmt(v):
        if v is None:
            return ""
        if isinstance(v, list):
            return ",".join(fmt(x) for x in v)
        if isinstance(v, Scheme):
            return v.value
        if isinstance(v, float):
            return repr(v)
        return str(v)

    lines = [f"{f.name}={fmt(getattr(spec, f.name))}" for f in dataclasses.fields(spec)]
    return "\n".join(lines) + "\n"


def _parse_list(raw: str, parse):
    return [parse(tok.strip()) for tok in raw.split(",") if tok.strip()]


def _parse_snr(raw: str) -> list[float]:
    """Either a comma list ("0,5,10") or a range "start:stop:step" (inclusive)."""
    if ":" not in raw:
        return _parse_list(raw, float)
    start, stop, step = (float(tok) for tok in raw.split(":"))
    if not (math.isfinite(start) and math.isfinite(stop) and math.isfinite(step) and step > 0):
        raise ValueError(f"range {raw!r} needs finite bounds and a positive step")
    if (stop - start) / step >= _MAX_SNR_POINTS:
        raise ValueError(f"range {raw!r} has more than {_MAX_SNR_POINTS} points")
    out = []
    while (v := start + len(out) * step) <= stop + 1e-12:
        out.append(v)
    return out


_PARSERS = {
    "figure": str,
    "snr_points_db": _parse_snr,
    "relay_counts": lambda r: _parse_list(r, int),
    "trials": int,
    "seed": int,
    "schemes": lambda r: _parse_list(r, Scheme),
    "mod_orders": lambda r: _parse_list(r, int),
    "gamma_th": float,
    "output_path": str,
}


def parse_field(key: str, raw: str):
    """Value of spec field ``key`` from its text form; a malformed value
    raises a ValueError that names the field."""
    try:
        return _PARSERS[key](raw)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def spec_from_text(text: str) -> ExperimentSpec:
    spec = ExperimentSpec()
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = (part.strip() for part in line.partition("="))
        if key not in _PARSERS:
            raise ValueError(f"line {lineno}: unknown key {key!r}")
        setattr(spec, key, parse_field(key, raw) if raw else None)
    if spec.figure is None:
        spec.figure = "custom"
    return spec


# -- sweep cells -------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Cell:
    scheme: Scheme
    mod_order: int
    num_relays: int
    snr_db: float
    alloc: str  # "", "equal" or "optimized"

    def key(self) -> str:
        return (
            f"scheme={self.scheme.value};m={self.mod_order};n={self.num_relays};"
            f"snr={self.snr_db!r};alloc={self.alloc}"
        )


def _cells(spec: ExperimentSpec) -> list[_Cell]:
    allocs = _FIGURES[spec.figure].allocs
    return [
        _Cell(scheme, m, n, snr, alloc)
        for scheme in spec.schemes
        for m in spec.mod_orders
        for n in spec.relay_counts
        for snr in spec.snr_points_db
        for alloc in allocs
    ]


def _fmt(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return repr(float(v))  # shortest round-trip; plain even for numpy scalars
    return str(v)


def _cell_powers(cell: _Cell) -> PowerSplit:
    """The cell's operating point."""
    p_total = _budget(cell.snr_db)
    if cell.alloc == "optimized":
        objective = functools.partial(
            ser_for_powers, num_relays=cell.num_relays, mod_order=cell.mod_order, scheme=cell.scheme
        )
        return numeric_allocation(p_total, objective)
    return PowerSplit.equal(p_total)


def _cell_config(cell: _Cell) -> SystemConfig:
    """The scenario at the cell's operating point."""
    split = _cell_powers(cell)
    return SystemConfig(
        num_relays=cell.num_relays,
        p_source=split.p_source,
        p_relay=split.p_relay,
        mod_order=cell.mod_order,
        scheme=cell.scheme,
    )


def _compute_cell(spec: ExperimentSpec, cell: _Cell, mc) -> tuple[str, str]:
    """The cell's journal key and CSV row.  ``mc`` is (config, SER pair,
    outage) from its group's ``estimate_group``; an estimate is None on
    figures without its column."""
    fig = _FIGURES[spec.figure]
    config, ser, outage_mc = mc

    ser_mc = ser_ci = ser_quad = ser_closed = outage_an = None
    flags = []
    if cell.alloc:
        flags.append(f"alloc={cell.alloc}")

    if fig.ser:
        ser_mc, ser_ci = ser[0].ser, ser[0].ci_halfwidth
        rates = compute_rate_params(config)
        dist = BestRelayDistribution(cell.num_relays, rates.eta_relay_path)
        ser_quad = ser_quadrature(dist, rates.eta_direct, cell.mod_order)
        if cell.mod_order == 2:
            ser_closed = ser_closed_form(dist, rates.eta_direct)
        # the analytic chain is a single-user bound; the simulated joint
        # two-user detection sits above it
        flags.append("ser_model_gap")
        if cell.scheme is Scheme.DF_NC:
            flags.append("relay_mai")
    if fig.outage:
        bn = BestRelayDistribution(cell.num_relays, bottleneck_rate(config))
        outage_an = best_cdf(bn, spec.gamma_th)
        if cell.scheme is Scheme.ANC:
            flags.append("outage_exp_approx")

    row = ",".join(
        [
            cell.scheme.value,
            str(cell.mod_order),
            str(cell.num_relays),
            repr(float(cell.snr_db)),
            _fmt(ser_mc),
            _fmt(ser_ci),
            _fmt(ser_quad),
            _fmt(ser_closed),
            _fmt(outage_mc),
            _fmt(outage_an),
            _fmt(config.p_source),
            _fmt(config.p_relay),
            ";".join(flags),
        ]
    )
    return cell.key(), row


def _seed(spec: ExperimentSpec, index: int) -> int:
    """Seed of the group whose first cell is at ``index`` in full cell order."""
    return int(np.random.SeedSequence(spec.seed, spawn_key=(index,)).generate_state(1)[0])


def _run_group(spec: ExperimentSpec, first: int, cells: list[_Cell]) -> list[tuple[str, str]]:
    """Journal keys and rows of a group's pending ``cells``, on the draws
    seeded by its first cell (index ``first``), pending or not."""
    fig = _FIGURES[spec.figure]
    configs = [_cell_config(cell) for cell in cells]
    gamma_th = spec.gamma_th if fig.outage else None
    estimates = estimate_group(configs, spec.trials, _seed(spec, first), ser=fig.ser, gamma_th=gamma_th)
    return [_compute_cell(spec, cell, (config, *est)) for cell, config, est in zip(cells, configs, estimates)]


def _config_hash(spec: ExperimentSpec) -> str:
    """Hash of the spec and of the code that turns it into rows: the package
    version, the batch size that maps trials to random draws, and the
    early-stop policy."""
    code = f"version={__version__}\nbatch_size={montecarlo.BATCH_SIZE}\nmax_errors={montecarlo.MAX_ERRORS}\n"
    return hashlib.sha256((code + spec_to_text(spec)).encode()).hexdigest()[:16]


def _load_journal(path: str, config_hash: str) -> tuple[dict[str, str], int]:
    """Rows journaled for this config, and the byte length of the journal's
    intact prefix (0 when the journal is missing or belongs to another
    sweep)."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
    except FileNotFoundError:
        return {}, 0
    header = f"#config={config_hash}\n".encode()
    if not data.startswith(header):
        return {}, 0  # different sweep; start over
    # a last line without its newline is a torn write from an interrupted run
    intact = data.rfind(b"\n") + 1
    done: dict[str, str] = {}
    for line in data[len(header) : intact].decode("utf-8").splitlines():
        key, tab, row = line.partition("\t")
        if tab and row.count(",") == CSV_HEADER.count(","):
            done[key] = row
    return done, intact


@dataclasses.dataclass(frozen=True)
class ExperimentResult:
    csv_path: str
    meta_path: str
    rows: list[str]


def run_experiment(spec: ExperimentSpec, workers: int = 1) -> ExperimentResult:
    """Run every pending sweep cell, journal its row, then write the CSV
    (deterministic order) and the metadata sidecar.  Each group with a
    pending cell is one job on a pool of up to ``workers`` threads: it
    computes only its pending cells, on the draws that all its cells share.
    A group's cells are contiguous in cell order and its rows are journaled
    together, so rows are journaled in cell order.  When a job fails or the
    run is interrupted, no further job starts, the rows of the running ones
    are journaled as they finish, and the exception is re-raised."""
    result = validate_spec(spec)
    if not result.ok:
        raise SpecValidationError("invalid experiment spec: " + "; ".join(result.errors))
    spec = result.spec

    out_path = spec.output_path
    parent = os.path.dirname(out_path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    journal_path = out_path + ".journal"
    meta_path = out_path + ".meta"
    chash = _config_hash(spec)

    cells = _cells(spec)
    done, intact = _load_journal(journal_path, chash)
    # a group is the cells of one (scheme, M, N); each group's first cell in
    # full cell order, and its pending cells
    groups: dict[tuple, tuple[int, list[_Cell]]] = {}
    for i, cell in enumerate(cells):
        _, members = groups.setdefault((cell.scheme, cell.mod_order, cell.num_relays), (i, []))
        if cell.key() not in done:
            members.append(cell)
    jobs = [(first, members) for first, members in groups.values() if members]

    if intact:
        os.truncate(journal_path, intact)
    with open(journal_path, "a" if intact else "w", encoding="utf-8") as journal:
        if not intact:
            journal.write(f"#config={chash}\n")
            journal.flush()

        def record(entries: list[tuple[str, str]]) -> None:
            for key, row in entries:
                done[key] = row
                journal.write(f"{key}\t{row}\n")
            journal.flush()

        with concurrent.futures.ThreadPoolExecutor(max_workers=max(1, min(workers, len(jobs)))) as pool:
            futures = [pool.submit(_run_group, spec, first, members) for first, members in jobs]
            recorded = 0
            try:
                for future in futures:
                    record(future.result())
                    recorded += 1
            except BaseException:
                # a failed group or Ctrl-C: start no more jobs, and journal
                # every row finished meanwhile, so a resume keeps them
                pool.shutdown(cancel_futures=True)
                for future in futures[recorded:]:
                    if not future.cancelled() and future.exception() is None:
                        record(future.result())
                raise

    rows = [done[c.key()] for c in cells]
    _write_atomic(out_path, "".join(line + "\n" for line in [CSV_HEADER, *rows]))
    _write_meta(meta_path, spec, chash)
    return ExperimentResult(out_path, meta_path, rows)


def _write_atomic(path: str, text: str) -> None:
    """Replace ``path`` by way of a temporary file in the same directory, so
    an interrupted write leaves the previous file intact."""
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def _write_meta(path: str, spec: ExperimentSpec, chash: str) -> None:
    lines = [
        f"config_hash={chash}",
        f"figure={spec.figure}",
        f"seed={spec.seed}",
        f"trials={spec.trials}",
        f"gamma_th={spec.gamma_th!r}",
        "snr_axis=total_power_over_noise_db",
        "power_constraint=2*p_source+p_relay=p_total",
        "default_split=equal(p_source=p_relay=p_total/3)",
        "ser_column_source=source_1",
        "analytic_ser_rate=per_source_relay_path",
        "analytic_outage_rate=pair_min_bottleneck",
        f"python_version={sys.version.split()[0]}",
        f"numpy_version={np.__version__}",
    ]
    for rec in discrepancy.collect_all():
        lines.append(rec.as_kv())
    _write_atomic(path, "\n".join(lines) + "\n")
