"""Correctness gate: every CSV row is one cell, and a cell fails if it flags
a violation, breaks an invariant of its subcommand, or deviates from the
stored reference.

Invariants hold on any seed:
  * no violation rows, and each error <= its bound (+ the CLI's 1e-12 slack);
  * floquet-check: every deviation column is non-increasing in L, up to
    FLOOR (deviations of L >= 16 sit at the 1e-14 round-off level, where
    they move by a few 1e-14 either way);
  * resource-table: r and gates are positive integers with gates = r times
    the per-step gate count of the seed-0 reference row for the same N.
Reference CSVs are stored for seed 0 only and compared field by field:
integers and strings exactly, floats to REL_TOL (plus ABS_TOL for values at
the oracle's noise floor).
"""

from __future__ import annotations

import math
from pathlib import Path

REL_TOL = 1e-6
ABS_TOL = 1e-11
VIOLATION_SLACK = 1e-12
FLOOR = 1e-12
REFERENCE_SEEDS = (0,)


class Verdict:
    """Failed-cell flags of one subcommand's CSV, with the first reasons."""

    def __init__(self, cells: int):
        self.cells = cells
        self.failed = [False] * cells
        self.reasons: list[str] = []

    def fail(self, row: int | None, reason: str) -> None:
        rows = range(self.cells) if row is None else [row]
        for r in rows:
            self.failed[r] = True
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    @property
    def n_failed(self) -> int:
        return sum(self.failed)


def read_csv(path: Path) -> tuple[list[str], list[list[str]]]:
    lines = path.read_text().splitlines()
    if not lines:
        return [], []
    return lines[0].split(","), [line.split(",") for line in lines[1:]]


def _num(field: str) -> float | None:
    return None if field == "" else float(field)


def check_step(subcommand: str, csv_path: Path, cells: int, exit_code: int,
               reference: Path | None, seed: int) -> Verdict:
    """Check one subcommand's output.  ``reference`` is the seed-0 CSV of
    the same step, or None when no reference exists (tiny sizes)."""
    verdict = Verdict(cells)
    if exit_code != 0:
        verdict.fail(None, f"{subcommand} exited with code {exit_code}")
        return verdict
    if not csv_path.is_file():
        verdict.fail(None, f"{subcommand} wrote no {csv_path.name}")
        return verdict
    header, rows = read_csv(csv_path)
    if len(rows) != cells:
        verdict.fail(None, f"{csv_path.name}: {len(rows)} rows, expected {cells}")
        return verdict
    col = {name: i for i, name in enumerate(header)}
    try:
        values = [[_num(f) if name not in ("model", "bound_kind") else f
                   for name, f in zip(header, row)] for row in rows]
    except ValueError as exc:
        verdict.fail(None, f"{csv_path.name}: unparsable field ({exc})")
        return verdict
    for i, row in enumerate(values):
        if any(isinstance(v, float) and not math.isfinite(v) for v in row):
            verdict.fail(i, f"{csv_path.name} row {i}: non-finite value")
        if "violation" in col and row[col["violation"]] != 0:
            verdict.fail(i, f"{csv_path.name} row {i}: violation flagged")
    _INVARIANTS[subcommand](verdict, col, values)
    if reference is not None:
        if not reference.is_file():
            verdict.fail(None, f"no reference {reference.name}")
            return verdict
        ref_header, ref_rows = read_csv(reference)
        if subcommand == "resource-table":
            _per_step_gates(verdict, col, values, ref_rows)
        if seed in REFERENCE_SEEDS:
            _compare(verdict, header, rows, ref_header, ref_rows)
    return verdict


def _within(verdict, i, error, bound, what):
    if error is not None and bound is not None and error > bound + VIOLATION_SLACK:
        verdict.fail(i, f"row {i}: {what} {error!r} exceeds bound {bound!r}")


def _bound_check(verdict, col, values):
    for i, row in enumerate(values):
        tight, coro = row[col["tight_bound"]], row[col["corollary_bound"]]
        _within(verdict, i, row[col["error"]], coro if tight is None else tight, "error")
        _within(verdict, i, tight, coro, "tight bound")


def _error_bound(verdict, col, values):
    for i, row in enumerate(values):
        _within(verdict, i, row[col["error"]], row[col["bound"]], "error")


def _mpf_scan(verdict, col, values):
    for i, row in enumerate(values):
        if row[col["in_regime"]] == 1:
            _within(verdict, i, row[col["error"]], row[col["bound"]], "error")


def _floquet_check(verdict, col, values):
    dev_cols = [c for name, c in col.items() if name not in ("L", "L_keep")]
    for i in range(1, len(values)):
        for c in dev_cols:
            prev, cur = values[i - 1][c], values[i][c]
            if cur > prev * (1 + 1e-9) + FLOOR:
                verdict.fail(i, f"row {i}: column {c} grew from {prev!r} to {cur!r}")


def _resource_table(verdict, col, values):
    for i, row in enumerate(values):
        r, gates = row[col["r"]], row[col["gates"]]
        if r is None or gates is None or r < 1 or r != int(r) or gates != int(gates):
            verdict.fail(i, f"row {i}: r={r!r} gates={gates!r} are not positive integers")


def _per_step_gates(verdict, col, values, ref_rows):
    per_step = {int(row[col["N"]]): int(row[col["gates"]]) // int(row[col["r"]])
                for row in ref_rows}
    for i, row in enumerate(values):
        n, r, gates = int(row[col["N"]]), row[col["r"]], row[col["gates"]]
        if r is not None and gates is not None and gates != r * per_step.get(n, -1):
            verdict.fail(i, f"row {i}: gates {gates!r} != r {r!r} x {per_step.get(n)}")


def _compare(verdict, header, rows, ref_header, ref_rows):
    if header != ref_header or len(rows) != len(ref_rows):
        verdict.fail(None, "CSV layout differs from the reference")
        return
    for i, (row, ref) in enumerate(zip(rows, ref_rows)):
        for name, got, want in zip(header, row, ref):
            if not _same(got, want):
                verdict.fail(i, f"row {i} {name}: {got} != reference {want}")


def _same(got: str, want: str) -> bool:
    if got == want:
        return True
    try:
        a, b = float(got), float(want)
    except ValueError:
        return False
    if any(ch in want for ch in ".eEn") or any(ch in got for ch in ".eEn"):
        return abs(a - b) <= REL_TOL * max(abs(a), abs(b)) + ABS_TOL
    return False   # integers compare exactly


_INVARIANTS = {
    "bound-check": _bound_check,
    "huyghebaert-check": _error_bound,
    "nonunitary-check": _error_bound,
    "mpf-scan": _mpf_scan,
    "floquet-check": _floquet_check,
    "resource-table": _resource_table,
}
