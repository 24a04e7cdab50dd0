"""The memory core shared by every time stepper.

Each fractional term of a scheme, discretized by convolution quadrature with
starting weights, has one shape at time level n,

    scale * ( sum_{k=0}^{n} c_{n-k} x^k + sum_{r=1}^{m} w_{n,r} x^r ),

a lower-triangular Toeplitz convolution with kernel c plus m starting-weight
columns (Lubich 1986), acting on a scalar history x^0, x^1, ... of shape
(levels,) or a field history of shape (levels, d).  The WSGL weights with
their starting-weight tables, the L1 weights in value form and the
product-trapezoidal weights are all held as such terms, so a stepper needs
three things from them: the implicit diagonal and the known part at level n
(both from a ``History``), and the coefficients of the coupled startup block.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.fft import irfft, rfft

__all__ = ["Term", "History", "startup_matrix"]

_BASE = 32  # lags summed directly; longer lags go through the FFT far field
_CHUNK = 1 << 16  # elements of a far-field block transformed at once


@dataclass(frozen=True)
class Term:
    """scale * (kernel convolution + starting-weight table + level-0 column);
    ``table`` has one row per level and one column per corrected level 1..m,
    ``origin`` one x^0 coefficient per level on top of the kernel's."""

    scale: float
    kernel: np.ndarray
    table: np.ndarray | None = None
    origin: np.ndarray | None = None


class History:
    """Known parts of ``terms`` on a history ``x`` that a march fills level
    by level: call ``feed(n)`` once x[n] is final, and ``known(n)``, every
    contribution at level n except c_0 x^n, once x[0..n-1] are fed.  With m
    the widest starting-weight table (0 when there is none), ``known(n)``
    holds for n > m, and for n = m once ``feed(m)`` has run.

    The kernels are summed into one, c (c[0] is the implicit diagonal).
    Level n sums the lags 1.._BASE-1, which carry the largest weights,
    directly (one dot against a contiguous reversed copy of those lags) and
    reads the rest from a far field: once the left half [s, s+L)
    of a dyadic node [s, s+2L), L >= _BASE, is complete, one cyclic FFT of
    length 2L adds its convolution with the lags >= _BASE of c to the targets
    [s+L, s+2L).  A march of N levels costs O(N log^2 N) (Hairer, Lubich &
    Schlichte 1985).  The starting-weight columns on x[1..m] and the level-0
    columns on x[0] are fixed once x[0..m] are, so ``feed(m)`` adds them to
    the far field of every level at once."""

    def __init__(self, terms, x: np.ndarray):
        self.x = x
        self.c = sum(t.scale * t.kernel for t in terms)
        self.terms = terms
        self.m = max((t.table.shape[1] for t in terms if t.table is not None), default=0)
        self.far = np.zeros_like(x)
        self._far2d = self.far.reshape(len(x), -1)
        self._kernel_fft = {}
        self._near = np.ascontiguousarray(self.c[_BASE - 1 : 0 : -1])  # lags _BASE-1, ..., 1

    def feed(self, n: int) -> None:
        if n == self.m:  # x[0..m] are final: fold the fixed columns into the far field
            for t in self.terms:
                if t.table is not None:
                    self.far += t.table[: len(self.x)] @ (t.scale * self.x[1 : t.table.shape[1] + 1])
                if t.origin is not None:
                    self.far += np.multiply.outer(t.origin[: len(self.x)], t.scale * self.x[0])
        L = (n + 1) & -(n + 1)  # x[n] completes the left half [n+1-L, n+1)
        if L < _BASE or n + 1 == len(self.x):
            return
        out = self._far2d[n + 1 : n + 1 + L]
        if L not in self._kernel_fft:  # lags >= _BASE, shifted: target s+L+i comes out at L-_BASE+i
            self._kernel_fft[L] = rfft(self.c[_BASE : 2 * L], 2 * L)[:, None]
        src = self.x[n + 1 - L : n + 1].reshape(L, -1)
        step = max(1, _CHUNK // (2 * L))  # column chunks bound the transient memory
        for j in range(0, src.shape[1], step):
            spectrum = rfft(src[:, j : j + step], 2 * L, axis=0)
            spectrum *= self._kernel_fft[L]
            out[:, j : j + step] += irfft(spectrum, 2 * L, axis=0)[L - _BASE : L - _BASE + len(out)]

    def known(self, n: int):
        if n >= _BASE - 1:
            return self.far[n] + self._near.dot(self.x[n - _BASE + 1 : n])
        return self.far[n] + self.c[n:0:-1].dot(self.x[:n])


def startup_matrix(terms, m: int) -> np.ndarray:
    """(m+1) x m coefficients of x^1..x^m in the memory at levels 0..m."""
    lag = np.arange(m + 1)[:, None] - np.arange(1, m + 1)[None, :]
    P = np.zeros((m + 1, m))
    for t in terms:
        P += t.scale * np.where(lag >= 0, t.kernel[np.maximum(lag, 0)], 0.0)
        if t.table is not None:
            P[:, : t.table.shape[1]] += t.scale * t.table[: m + 1]
    return P
