"""Grunwald-Letnikov and weighted-shifted GL convolution weights.

The shifted GL formula approximates the Riemann-Liouville derivative of order
alpha on a uniform grid t_n = n*tau as

    B_q[U](t_n) = tau^(-alpha) * sum_{k=0}^{n+q} w_k U(t_{n-k+q}),

with w_k = (-1)^k binom(alpha, k).  Combining two shifts cancels the O(tau)
error term and yields the second-order weighted-shifted (WSGL) operator; for
the shift pair (0, -1) it is a pure lower-triangular convolution with weights
g_k.  The weights are plain read-only arrays; starting-weight corrections
live in ``corrections``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .specfun import gamma

__all__ = [
    "SampledPath",
    "gl_weights",
    "wsgl_weights",
    "l1_weights",
    "step_count",
    "rl_deriv_power",
]


@dataclass(frozen=True)
class SampledPath:
    """Grid function U^0..U^{n_T} sampled at t_k = k*tau."""

    tau: float
    values: np.ndarray

    def __post_init__(self):
        if not 0 < self.tau < math.inf:  # NaN fails it
            raise ValueError(f"finite tau > 0 required, got tau = {self.tau!r}")
        values = np.asarray(self.values, dtype=float)
        if not np.all(np.isfinite(values)):
            raise ValueError("sampled values must be finite")
        object.__setattr__(self, "values", values)

    @property
    def n_steps(self) -> int:
        return len(self.values) - 1

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.values)) * self.tau


def step_count(tau: float, T: float) -> int:
    """Number of steps n_T = T / tau; tau must divide T."""
    for name, v in (("tau", tau), ("T", T)):
        if not 0 < v < math.inf:  # NaN fails it
            raise ValueError(f"finite {name} > 0 required, got {name} = {v!r}")
    n_t = int(round(T / tau))
    if n_t < 1 or abs(n_t * tau - T) > 1e-10 * max(1.0, T):
        raise ValueError(f"tau={tau:g} must divide T={T:g}")
    return n_t


def gl_weights(alpha: float, K: int) -> np.ndarray:
    """GL weights w_k = (-1)^k binom(alpha, k), k = 0..K, as a read-only array.

    Computed by the stable recurrence w_0 = 1, w_k = (1 - (alpha+1)/k) w_{k-1}.
    """
    if K < 0:
        raise ValueError("K must be >= 0")
    omega = np.empty(K + 1)
    omega[0] = 1.0
    if K >= 1:
        k = np.arange(1, K + 1, dtype=float)
        omega[1:] = np.cumprod(1.0 - (alpha + 1.0) / k)
    omega.setflags(write=False)
    return omega


def wsgl_weights(alpha: float, K: int) -> np.ndarray:
    """Second-order WSGL weights g_0..g_K of (1-z)^alpha (1 + alpha/2 - alpha/2 z)
    for the shift pair (0, -1), as a read-only array:
    g_0 = (2+alpha)/2 w_0 and g_k = (2+alpha)/2 w_k - alpha/2 w_{k-1}.

    Entry k does not depend on K, so a shorter table is a bitwise prefix of a
    longer one.
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    omega = gl_weights(alpha, K)
    g = np.empty(K + 1)
    g[0] = (2.0 + alpha) / 2.0 * omega[0]
    g[1:] = (2.0 + alpha) / 2.0 * omega[1:] - alpha / 2.0 * omega[:-1]
    g.setflags(write=False)
    return g


def l1_weights(alpha: float, n: int, tau: float) -> np.ndarray:
    """L1 convolution weights c_0..c_n in value form: c_0 = b_0 and
    c_j = b_j - b_{j-1}, where b_k = tau^(-alpha)/Gamma(2-alpha)
    ((k+1)^(1-alpha) - k^(1-alpha)).  Summation by parts turns the Caputo
    quadrature sum_k b_{n-k-1} (y^{k+1} - y^k) into sum_{k=1}^n c_{n-k} (y^k - y^0).
    k^(1-alpha) is 0 at k = 0 for every alpha, so alpha = 1 gives the backward
    difference c = (1, -1, 0, ...) / tau, the limit alpha -> 1."""
    k = np.arange(n + 1, dtype=float)
    powers = k ** (1.0 - alpha)
    powers[0] = 0.0  # 0.0 ** 0.0 is 1
    b = tau ** (-alpha) / gamma(2.0 - alpha) * ((k + 1.0) ** (1.0 - alpha) - powers)
    c = b.copy()
    c[1:] -= b[:-1]
    return c


def rl_deriv_power(alpha: float, sigma: float, t: float) -> float:
    """Exact Riemann-Liouville derivative of t^sigma:
    Gamma(sigma+1)/Gamma(sigma+1-alpha) * t^(sigma-alpha).

    Closed form; used as the independent oracle throughout.  Note the RL
    derivative of a constant (sigma = 0) is nonzero.
    """
    if sigma < 0:
        raise ValueError("sigma >= 0 required")
    return gamma(sigma + 1.0) / gamma(sigma + 1.0 - alpha) * t ** (sigma - alpha)
