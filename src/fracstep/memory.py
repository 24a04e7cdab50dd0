"""The memory core shared by every time stepper.

Each fractional term of a scheme, discretized by convolution quadrature with
starting weights, has one shape at time level n,

    scale * ( sum_{k=0}^{n} c_{n-k} x^k + sum_{r=1}^{m} w_{n,r} x^r ),

a lower-triangular Toeplitz convolution with kernel c plus m starting-weight
columns (Lubich 1986), acting on a scalar history x^0, x^1, ... of shape
(levels,) or a field history of shape (levels, d).  The WSGL weights with
their starting-weight tables and the L1 weights in value form are all held
as such terms, so a stepper needs three things from them: the implicit
diagonal, the known part at level n, and the coefficients of the coupled
startup block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Term", "diagonal", "history", "startup_matrix"]


@dataclass(frozen=True)
class Term:
    """scale * (kernel convolution + starting-weight table); ``table`` has
    one row per level and one column per corrected level 1..m, or is None."""

    scale: float
    kernel: np.ndarray
    table: np.ndarray | None = None


def diagonal(terms) -> float:
    """Coefficient of the newest level x^n: sum of scale * c_0."""
    return sum(t.scale * t.kernel[0] for t in terms)


def history(terms, x, n: int):
    """Known part at level n: every contribution except c_0 x^n.  Reads the
    levels x[0..n-1] and the corrected levels x[1..m]."""
    acc = 0.0
    for t in terms:
        acc = acc + t.scale * (x[:n].T @ t.kernel[n:0:-1])
        if t.table is not None:
            acc = acc + t.scale * (x[1 : t.table.shape[1] + 1].T @ t.table[n])
    return acc


def startup_matrix(terms, m: int) -> np.ndarray:
    """(m+1) x m coefficients of x^1..x^m in the memory at levels 0..m."""
    lag = np.arange(m + 1)[:, None] - np.arange(1, m + 1)[None, :]
    P = np.zeros((m + 1, m))
    for t in terms:
        P += t.scale * np.where(lag >= 0, t.kernel[np.maximum(lag, 0)], 0.0)
        if t.table is not None:
            P[:, : t.table.shape[1]] += t.scale * t.table[: m + 1]
    return P
