"""Golden convergence tables and the tolerance a run's tables must meet.

Goldens are the CSVs the CLI wrote for every workload variant, recorded with
``python3 perfbench/run.py --record-golden``.  A table matches when the
header and the tau column are the same and every error cell agrees within
``RTOL`` relative plus ``ATOL`` absolute.  The tolerance admits the
last-digit changes a reordered floating-point summation can make (solutions
agreeing to ~1e-13 relative) and rejects any change in the scheme.  Order
cells are derived from the errors; they are compared within ``ORDER_ATOL``
where both errors they come from lie above ``ORDER_FLOOR``.
"""

from __future__ import annotations

import math
from pathlib import Path

GOLDEN_DIR = Path(__file__).resolve().parent / "golden"
RTOL = 1e-3
ATOL = 1e-11
ORDER_ATOL = 0.01
ORDER_FLOOR = 1e-8


def golden_path(workload: str, variant: int) -> Path:
    return GOLDEN_DIR / f"{workload}-v{variant}.csv"


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.strip().splitlines()]


def _num(cell: str) -> float:
    return math.nan if cell in ("", "nan") else float(cell)


def compare(got: str, want: str) -> str | None:
    """None when the table ``got`` matches ``want``, else the first mismatch."""
    g, w = _rows(got), _rows(want)
    if g[:1] != w[:1]:
        return f"header differs: {g[:1]} vs {w[:1]}"
    if len(g) != len(w):
        return f"{len(g) - 1} rows, golden has {len(w) - 1}"
    header = w[0]
    for r, (grow, wrow) in enumerate(zip(g[1:], w[1:]), start=1):
        if len(grow) != len(wrow):
            return f"row {r}: {len(grow)} cells, golden has {len(wrow)}"
        for c, (gc, wc) in enumerate(zip(grow, wrow)):
            col = header[c]
            if col.endswith("_order"):
                if r < 2:
                    ok = gc == wc
                else:
                    e_now, e_prev = _num(w[r][c - 1]), _num(w[r - 1][c - 1])
                    if min(e_now, e_prev) < ORDER_FLOOR:
                        continue
                    gv, wv = _num(gc), _num(wc)
                    ok = (math.isnan(gv) and math.isnan(wv)) or abs(gv - wv) <= ORDER_ATOL
            else:
                gv, wv = _num(gc), _num(wc)
                tol = 1e-12 * abs(wv) if col == "tau" else RTOL * abs(wv) + ATOL
                ok = abs(gv - wv) <= tol
            if not ok:
                return f"row {r} column {col}: {gc} vs golden {wc}"
    return None
