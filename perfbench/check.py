"""Correctness check of one sweep CSV against its recorded reference.

A row passes when
- its sweep cell (scheme, M, N, SNR) and flags equal the reference row's;
- each analytic column (ser_quadrature, ser_paper_closed, outage_analytic,
  p_s, p_r) matches the reference to a relative tolerance of 1e-9;
- each Monte Carlo estimate is internally consistent (ser_mc and ser_ci come
  from one whole error count over one whole trial count, at most the cap) and
  its Wilson interval at z = 4.5 overlaps the reference's.  Two estimates of
  one error rate fail that test with probability below 1e-8, so a change of
  random stream passes while a wrong detector, which moves the rate by many
  standard errors, fails.

Byte identity with the reference is reported separately; it is only possible
at the reference seed.
"""

from __future__ import annotations

import dataclasses
import math

CSV_HEADER = (
    "scheme,mod_order,num_relays,snr_db,ser_mc,ser_ci,ser_quadrature,"
    "ser_paper_closed,outage_mc,outage_analytic,p_s,p_r,flags"
)
_COLS = CSV_HEADER.split(",")
_KEY = ("scheme", "mod_order", "num_relays", "snr_db", "flags")
_ANALYTIC = ("ser_quadrature", "ser_paper_closed", "outage_analytic", "p_s", "p_r")
RTOL = 1e-9
ATOL = 1e-12  # the SER quadrature's absolute tolerance is 1e-10
Z_CHECK = 4.5
_Z95 = 1.959963984540054  # the level of the CSV's ser_ci


@dataclasses.dataclass
class CheckResult:
    cells: int          # rows the reference holds, or the CSV if it has more
    failed: int         # rows missing, extra or failing
    problems: list[str]
    identical: bool     # byte-identical to the reference


def _wilson(p: float, n: float, z: float) -> tuple[float, float]:
    z2 = z * z
    denom = 1.0 + z2 / n
    center = (p + z2 / (2.0 * n)) / denom
    half = z * math.sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom
    return center - half, center + half


def _trials_from_ci(p: float, ci: float) -> int:
    """Invert the 95% Wilson half-width for the trial count (it falls in n)."""
    lo, hi = 1.0, 1e15
    for _ in range(200):
        mid = math.sqrt(lo * hi)
        a, b = _wilson(p, mid, _Z95)
        if (b - a) / 2.0 > ci:
            lo = mid
        else:
            hi = mid
    return round(hi)


def _count(p: float, n: int, what: str) -> tuple[int, str | None]:
    errors = round(p * n)
    if abs(errors / n - p) > 1e-12:
        return errors, f"{what}={p!r} is not a whole count over {n} trials"
    return errors, None


def _overlap(e1: int, n1: int, e2: int, n2: int) -> bool:
    lo1, hi1 = _wilson(e1 / n1, n1, Z_CHECK)
    lo2, hi2 = _wilson(e2 / n2, n2, Z_CHECK)
    return lo1 <= hi2 and lo2 <= hi1


def _ser_count(row: dict, cap: int) -> tuple[tuple[int, int] | None, str | None]:
    p, ci = float(row["ser_mc"]), float(row["ser_ci"])
    if not (0.0 <= p <= 1.0 and ci > 0.0):
        return None, f"ser_mc={p!r} ser_ci={ci!r} out of range"
    n = _trials_from_ci(p, ci)
    if not 1 <= n <= cap:
        return None, f"ser_ci implies {n} trials, cap is {cap}"
    a, b = _wilson(p, n, _Z95)
    if not math.isclose((b - a) / 2.0, ci, rel_tol=1e-9):
        return None, f"ser_ci={ci!r} is not the Wilson half-width of ser_mc at any whole trial count"
    errors, problem = _count(p, n, "ser_mc")
    return (errors, n), problem


def check_row(row: dict, ref: dict, cap: int) -> list[str]:
    problems = [f"{c}={row[c]!r}, reference {ref[c]!r}" for c in _KEY if row[c] != ref[c]]
    for c in _ANALYTIC:
        a, b = row[c], ref[c]
        if (a == "") != (b == ""):
            problems.append(f"{c}={a!r}, reference {b!r}")
        elif a and not abs(float(a) - float(b)) <= RTOL * abs(float(b)) + ATOL:
            problems.append(f"{c}={a}, reference {b}")

    if (row["ser_mc"] == "") != (ref["ser_mc"] == "") or (row["ser_ci"] == "") != (row["ser_mc"] == ""):
        problems.append(f"ser_mc={row['ser_mc']!r} ser_ci={row['ser_ci']!r}, reference ser_mc={ref['ser_mc']!r}")
    elif row["ser_mc"]:
        got, problem = _ser_count(row, cap)
        want, _ = _ser_count(ref, cap)
        if problem:
            problems.append(problem)
        elif not _overlap(*got, *want):
            problems.append(f"ser_mc={row['ser_mc']} outside the z={Z_CHECK} bound of reference {ref['ser_mc']}")

    if (row["outage_mc"] == "") != (ref["outage_mc"] == ""):
        problems.append(f"outage_mc={row['outage_mc']!r}, reference {ref['outage_mc']!r}")
    elif row["outage_mc"]:
        # estimate_outage always runs the full trial count
        got, problem = _count(float(row["outage_mc"]), cap, "outage_mc")
        want, _ = _count(float(ref["outage_mc"]), cap, "outage_mc")
        if problem:
            problems.append(problem)
        elif not _overlap(got, cap, want, cap):
            problems.append(
                f"outage_mc={row['outage_mc']} outside the z={Z_CHECK} bound of reference {ref['outage_mc']}"
            )
    return problems


def _rows(text: str) -> tuple[str, list[dict | None]]:
    lines = text.split("\n")
    header = lines[0]
    body = lines[1:-1] if lines[-1] == "" else lines[1:]
    rows = []
    for line in body:
        fields = line.split(",")
        rows.append(dict(zip(_COLS, fields)) if len(fields) == len(_COLS) else None)
    return header, rows


def check_csv(text: str, reference: str, cap: int) -> CheckResult:
    """Check CSV ``text`` cell by cell against ``reference`` (both whole
    files); ``cap`` is the per-cell trial cap both were run with."""
    _, ref_rows = _rows(reference)
    header, rows = _rows(text)
    cells = max(len(rows), len(ref_rows))
    result = CheckResult(cells, 0, [], text == reference)
    if header != CSV_HEADER:
        result.failed = cells
        result.problems.append(f"header {header!r}")
        return result
    if len(rows) != len(ref_rows):
        result.failed = abs(len(rows) - len(ref_rows))
        result.problems.append(f"{len(rows)} rows, reference has {len(ref_rows)}")
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        try:
            problems = ["malformed row"] if row is None else check_row(row, ref, cap)
        except ValueError as exc:
            problems = [f"unparseable: {exc}"]
        if problems:
            result.failed += 1
            result.problems.append(f"row {i + 1}: " + "; ".join(problems))
    return result
