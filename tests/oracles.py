"""Independent pointwise oracles for the weight tables, the memory core and
the special functions.

Each function evaluates one operator value, one row of starting weights at a
single step, one known part of a memory at a single level or one series sum
at a single point, straight from its defining formula, so the vectorised
tables, convolutions and sums in ``fracstep`` can be checked against it.
``s_factor`` is the error-amplitude factor of a correction set, which the
tests compare with the observed error decay.
"""

import math

import numpy as np

from fracstep.glweights import SampledPath, gl_weights, wsgl_weights
from fracstep.specfun import gamma


def sample(f, tau: float, T: float) -> SampledPath:
    """f sampled at t_k = k*tau, k = 0..T/tau."""
    n_t = int(round(T / tau))
    if abs(n_t * tau - T) > 1e-12 * max(1.0, T):
        raise ValueError(f"tau={tau:g} does not divide T={T:g}")
    t = np.arange(n_t + 1) * tau
    return SampledPath(tau, np.array([f(tk) for tk in t], dtype=float))


def apply_shifted_gl(path: SampledPath, alpha: float, q: int, n: int) -> float:
    """Shifted GL operator B_q at step n: tau^(-alpha) sum_{k=0}^{n+q} w_k U^{n-k+q}.
    Samples past t_{n_T} are an error, not an extrapolation."""
    if n < abs(q):
        raise ValueError(f"n >= |q| required (n={n}, q={q})")
    if n + q > path.n_steps:
        raise IndexError(f"step n+q={n + q} exceeds available samples (n_T={path.n_steps})")
    window = path.values[n + q :: -1]
    return path.tau ** (-alpha) * float(np.dot(gl_weights(alpha, n + q), window))


def apply_wsgl_pair(path: SampledPath, alpha: float, p: int, q: int, n: int) -> float:
    """(alpha-2q)/(2(p-q)) B_p + (2p-alpha)/(2(p-q)) B_q; for (p, q) = (0, -1)
    this is tau^(-alpha) sum_k g_{n-k} U^k."""
    if p == q:
        raise ValueError("shifts p and q must differ")
    cp = (alpha - 2.0 * q) / (2.0 * (p - q))
    cq = (2.0 * p - alpha) / (2.0 * (p - q))
    return cp * apply_shifted_gl(path, alpha, p, n) + cq * apply_shifted_gl(path, alpha, q, n)


def history(terms, x, n: int):
    """Known part of the memory ``terms`` (``fracstep.memory.Term``) at level
    n by the direct sum: every contribution except c_0 x^n.  Reads the levels
    x[0..n-1] and the corrected levels x[1..m]."""
    acc = 0.0
    for t in terms:
        acc = acc + t.scale * (x[:n].T @ t.kernel[n:0:-1])
        if t.table is not None:
            acc = acc + t.scale * (x[1 : t.table.shape[1] + 1].T @ t.table[n])
        if t.origin is not None:
            acc = acc + t.scale * t.origin[n] * x[0]
    return acc


class DirectHistory:
    """``fracstep.memory.History`` by the direct sum, to march a solver
    without the FFT far field."""

    def __init__(self, terms, x):
        self.terms, self.x = terms, x
        self.c = sum(t.scale * t.kernel for t in terms)  # c[0] is the implicit diagonal

    def feed(self, n: int) -> None:
        pass

    def known(self, n: int):
        return history(self.terms, self.x, n)


def _power_rows(exponents) -> np.ndarray:
    m = len(exponents)
    return np.array([[float(k) ** s for k in range(1, m + 1)] for s in exponents])


def starting_weights_step(alpha: float, cset, n: int) -> np.ndarray:
    """Starting weights w_{n,1..m} at one step n >= 1 from the exactness
    conditions sum_k w_{n,k} k^s = Gamma(s+1)/Gamma(s+1-alpha) n^(s-alpha)
    - sum_{k=0}^n g_{n-k} k^s."""
    g = wsgl_weights(alpha, n)
    ks = np.arange(n + 1, dtype=float)
    rhs = [
        gamma(s + 1.0) / gamma(s + 1.0 - alpha) * float(n) ** (s - alpha)
        - float(np.dot(g[::-1], ks**s))
        for s in cset.sigmas
    ]
    return np.linalg.solve(_power_rows(cset.sigmas), rhs)


def d1_weights_step(exponents, n: int) -> np.ndarray:
    """Averaged-first-difference correction weights at one step n:
    sum_k u_{n,k} k^s = s/2 ((n+1)^(s-1) + n^(s-1)) - ((n+1)^s - n^s)."""
    x = float(n)
    rhs = [s / 2.0 * ((x + 1.0) ** (s - 1.0) + x ** (s - 1.0)) - ((x + 1.0) ** s - x**s) for s in exponents]
    return np.linalg.solve(_power_rows(exponents), rhs)


def corrected_wsgl_apply(path: SampledPath, alpha: float, cset, n: int) -> float:
    """Corrected WSGL operator at step n: the (0, -1) pair plus
    tau^(-alpha) sum_{k=1}^m w_{n,k} U^k."""
    base = apply_wsgl_pair(path, alpha, 0, -1, n)
    if cset.m == 0:
        return base
    w = starting_weights_step(alpha, cset, n)
    return base + path.tau ** (-alpha) * float(np.dot(w, path.values[1 : cset.m + 1]))


def ml_series_scalar(alpha: float, z: float):
    """Double-precision Taylor sum of E_alpha(z) at one point, term by term:
    t_{k+1} = t_k z Gamma(k alpha + 1) / Gamma((k+1) alpha + 1), stopping once
    a term falls below 1e-16 of the running sum twice in a row.

    Returns (value, condition, terms, last_ratio) where condition is
    sum|t_k| / |sum t_k| and last_ratio is |t_last| / |partial sum| at
    termination.
    """
    total = 1.0
    abs_total = 1.0
    term = 1.0
    small_runs = 0
    k = 0
    last_ratio = 0.0
    while k < 200_000:
        term *= z * math.exp(math.lgamma(k * alpha + 1.0) - math.lgamma((k + 1) * alpha + 1.0))
        k += 1
        total += term
        abs_total += abs(term)
        last_ratio = abs(term) / abs(total) if total != 0.0 else math.inf
        if abs(term) < 1e-16 * abs(total):
            small_runs += 1
            if small_runs >= 2:
                break
        else:
            small_runs = 0
    else:
        raise ArithmeticError(f"series did not converge (alpha={alpha:g}, z={z:g})")
    cond = abs_total / abs(total) if total != 0.0 else math.inf
    return total, cond, k, last_ratio


def s_factor(sigma: float, cset) -> float:
    """Error-amplitude factor prod_k |sigma - sigma_k|; empty product is 1.
    Vanishes when sigma is one of the corrected exponents, which is why a few
    well-placed corrections buy disproportionate accuracy."""
    out = 1.0
    for s in cset.sigmas:
        out *= abs(sigma - s)
    return out
