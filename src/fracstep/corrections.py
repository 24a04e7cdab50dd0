"""Starting-weight corrections for the WSGL operator.

The corrected operator adds weighted samples at the first m time levels,

    A_m[U](t_n) = A[U](t_n) + tau^(-alpha) * sum_{k=1}^m w_{n,k} U(t_k),

with the rows w_{n,.} chosen so the quadrature is exact on t^{sigma_r} for a
prescribed exponent set sigma_1 < ... < sigma_m.  Each row solves a small
exponential Vandermonde system A_{rk} = k^{sigma_r}; the matrix is
ill-conditioned in m, which is why m is capped at 10 and why the residual
diagnostics exist.  The right-hand sides hold sum_k g_{n-k} k^{sigma_r} for
every n and exponent, built as one field by the memory core's dyadic split
(``memory.convolve``) in O(N log^2 N), which also rounds less than a direct
sum at large n.  Two first-derivative variants (trapezoid-type averaging
corrections) are used by the diffusion-wave scheme.

None of these tables depends on tau, and row n of each is the same for every
length (``starting_weight_table``), so a study builds each once, at its
finest level: inside ``study_tables`` every ``shared_table`` key keeps the
longest table built and each request reads a read-only prefix of it.
"""

from __future__ import annotations

import warnings
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

import numpy as np

from .glweights import wsgl_weights
from .memory import convolve
from .specfun import gamma

__all__ = [
    "CorrectionSet",
    "VandermondeDiagnostics",
    "starting_weight_table",
    "d1_u_weight_table",
    "d1_v_weight_table",
    "vandermonde_diagnostics",
    "shared_table",
    "study_tables",
]

MAX_CORRECTION_TERMS = 10
_COND_WARN = 1e14
_tables = ContextVar("study_tables", default=None)  # the open study's tables by key, each the longest built


@contextmanager
def study_tables():
    """Scope of one study (``harness.run_study``): inside it ``shared_table``
    builds each key's table once, at the longest length asked, and hands out
    read-only prefixes; on exit the tables are dropped.  The scope belongs to
    the calling context, so another thread sees none."""
    token = _tables.set({})
    try:
        yield
    finally:
        _tables.reset(token)


def shared_table(key, n_max: int, build) -> np.ndarray:
    """Rows 0..n_max of ``build(n_max)``, a table whose rows do not depend on
    its length.  Outside ``study_tables`` it is built anew; inside, the
    longest table built for ``key`` serves every shorter request as a
    read-only prefix, and a longer request builds and keeps a longer one."""
    tables = _tables.get()
    if tables is None:
        return build(n_max)
    table = tables.get(key)
    if table is None or len(table) <= n_max:
        table = tables[key] = build(n_max)
        table.flags.writeable = False
    return table[: n_max + 1]


@dataclass(frozen=True)
class CorrectionSet:
    """Exponents sigma_1 < ... < sigma_m of the terms the corrected operator
    reproduces exactly.  At most 10 terms; beyond that double-precision
    starting weights are unreliable."""

    sigmas: tuple

    def __post_init__(self):
        sig = tuple(float(s) for s in self.sigmas)
        if len(sig) > MAX_CORRECTION_TERMS:
            raise ValueError(
                f"at most {MAX_CORRECTION_TERMS} correction terms supported, got {len(sig)}"
            )
        if any(s <= 0 for s in sig):
            raise ValueError("correction exponents must be positive")
        if any(b <= a for a, b in zip(sig, sig[1:])):
            raise ValueError("correction exponents must be strictly increasing")
        object.__setattr__(self, "sigmas", sig)

    @property
    def m(self) -> int:
        return len(self.sigmas)

    def truncated(self, m: int) -> "CorrectionSet":
        if m > self.m:
            raise ValueError(f"set holds {self.m} exponents, {m} requested")
        return CorrectionSet(self.sigmas[:m])

    def shifted(self, offset: float) -> "CorrectionSet":
        return CorrectionSet(tuple(s + offset for s in self.sigmas))


@dataclass(frozen=True)
class VandermondeDiagnostics:
    condition_number: float
    max_residual: float


def _power_matrix(sigmas) -> np.ndarray:
    k = np.arange(1, len(sigmas) + 1, dtype=float)
    return k[None, :] ** np.asarray(sigmas, dtype=float)[:, None]


def _check_condition(A: np.ndarray, sigmas) -> float:
    cond = float(np.linalg.cond(A, 2)) if len(A) else 1.0
    if cond > _COND_WARN:
        warnings.warn(
            f"starting-weight system is severely ill-conditioned "
            f"(cond ~ {cond:.2e}, exponents {tuple(sigmas)})",
            stacklevel=3,
        )
    return cond


def _fractional_rhs(alpha: float, sigmas, n_max: int) -> np.ndarray:
    """RHS of the exactness system for all n = 0..n_max at once, one row per
    exponent: Gamma(s+1)/Gamma(s+1-alpha) n^(s-alpha) - sum_k g_{n-k} k^s.
    The sums for every exponent are one field through the memory core's
    split, ``memory.convolve``, with the weights carried to lag 2 n_max, so
    that row n does not depend on n_max (see ``starting_weight_table``)."""
    ns = np.arange(n_max + 1, dtype=float)
    exact = np.zeros((len(sigmas), n_max + 1))
    exact[:, 1:] = [gamma(s + 1.0) / gamma(s + 1.0 - alpha) * ns[1:] ** (s - alpha) for s in sigmas]
    return exact - convolve(wsgl_weights(alpha, 2 * n_max), np.array([ns**s for s in sigmas]).T).T


def starting_weight_table(alpha: float, cset: CorrectionSet, n_max: int) -> np.ndarray:
    """Starting weights w_{n,1..m} of the corrected fractional operator for
    n = 0..n_max as an (n_max+1, m) array (row 0 is unused and zero).  Row n
    solves the exactness conditions

        sum_k w_{n,k} k^{s_r} = Gamma(s_r+1)/Gamma(s_r+1-alpha) n^{s_r-alpha}
                                - sum_{k=0}^n g_{n-k} k^{s_r},

    with the WSGL weights g of order alpha; one LU factorization serves every
    row.  Row n is the same bits in every table with n_max >= n, since it
    reads only node sizes L <= n and the weights to lag 2L - 1.  Except: the
    last node of a size L > 128 that is clipped to r <= 2^14 / L rows is
    summed directly (``memory._direct``), where a longer table transforms
    that node whole, so those r rows differ in rounding (a 520-row table
    from a 5120-row one in rows 512..520).  That is also where a cell of a
    study, which reads a prefix of its column's longest table
    (``study_tables``), can differ from a call on its own."""
    m = cset.m
    if m == 0:
        return np.zeros((n_max + 1, 0))
    A = _power_matrix(cset.sigmas)
    _check_condition(A, cset.sigmas)
    return shared_table((alpha, cset.sigmas), n_max, lambda n: _starting_weights(alpha, cset.sigmas, A, n))


def _starting_weights(alpha: float, sigmas, A: np.ndarray, n_max: int) -> np.ndarray:
    W = np.linalg.solve(A, _fractional_rhs(alpha, sigmas, n_max)).T
    W[0] = 0.0
    return W


def _d1_table(exponents, n_max: int) -> np.ndarray:
    A = _power_matrix(exponents)
    _check_condition(A, exponents)
    return shared_table(("d1", exponents), n_max, lambda n: _d1_weights(exponents, A, n))


def _d1_weights(exponents, A: np.ndarray, n_max: int) -> np.ndarray:
    ns = np.arange(n_max + 1, dtype=float)
    rhs = np.empty((len(exponents), n_max + 1))
    for r, s in enumerate(exponents):
        rhs[r] = s / 2.0 * ((ns + 1.0) ** (s - 1.0) + ns ** (s - 1.0)) - ((ns + 1.0) ** s - ns**s)
    return np.linalg.solve(A, rhs).T


def d1_u_weight_table(cset: CorrectionSet, m1: int, n_max: int) -> np.ndarray:
    """Correction weights u_{n,1..m1} for n = 0..n_max, shape (n_max+1, m1),
    making the averaged first difference exact on t^{sigma_r}: row n solves

        sum_k u_{n,k} k^{s_r} = s_r/2 ((n+1)^{s_r-1} + n^{s_r-1})
                                - ((n+1)^{s_r} - n^{s_r}).

    Row 0 holds 0^(sigma_r - 1), so sigma_r >= 1 is required.
    """
    if m1 == 0:
        return np.zeros((n_max + 1, 0))
    sigmas = cset.truncated(m1).sigmas
    if any(s < 1.0 for s in sigmas):
        raise ValueError(f"U-difference corrections need sigma_r >= 1, got sigma = {sigmas}")
    return _d1_table(sigmas, n_max)


def d1_v_weight_table(cset: CorrectionSet, m2: int, n_max: int) -> np.ndarray:
    """Same as ``d1_u_weight_table`` with every exponent lowered by one (the
    corrections act on the time-derivative field).  Row 0 holds
    0^(sigma_r - 2), so sigma_r >= 2 is required."""
    if m2 == 0:
        return np.zeros((n_max + 1, 0))
    sigmas = cset.truncated(m2).sigmas
    if any(s < 2.0 for s in sigmas):
        raise ValueError(f"V-difference corrections need sigma_r >= 2, got sigma = {sigmas}")
    return _d1_table(tuple(s - 1.0 for s in sigmas), n_max)


def vandermonde_diagnostics(alpha: float, cset: CorrectionSet) -> VandermondeDiagnostics:
    """2-norm condition number of the exactness system and the maximum
    residual of its double-precision solution over n = 1..100."""
    if cset.m < 1:
        raise ValueError("needs at least one correction exponent")
    A = _power_matrix(cset.sigmas)
    rhs = _fractional_rhs(alpha, cset.sigmas, 100)[:, 1:]
    resid = A @ np.linalg.solve(A, rhs) - rhs
    return VandermondeDiagnostics(float(np.linalg.cond(A, 2)), float(np.max(np.abs(resid))))
