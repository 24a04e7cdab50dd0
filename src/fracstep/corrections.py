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
sum at large n.  A first-derivative variant (trapezoid-type averaging
corrections) serves both averaged differences of the diffusion-wave scheme.
Every solver's memory terms, one ``memory.Term`` per term weight nu_j and
order alpha_j (``check_terms``), are built here (``wsgl_terms``, ``l1_terms``).

None of these tables depends on tau, and row n of each is the same for every
length (``starting_weight_table``), so a study builds and checks each once, at
its finest level: inside ``memory.study_tables`` every ``memory.shared_table``
key keeps the longest table built and each request reads a read-only prefix.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .glweights import l1_weights, wsgl_weights
from .memory import Term, convolve, shared_table
from .specfun import gamma

__all__ = [
    "CorrectionSet",
    "VandermondeDiagnostics",
    "starting_weight_table",
    "d1_weight_table",
    "vandermonde_diagnostics",
    "check_terms",
    "wsgl_terms",
    "l1_terms",
]

MAX_CORRECTION_TERMS = 10
_COND_WARN = 1e14


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

    def __iter__(self):  # a set is its exponents, so CorrectionSet(cset) copies it
        return iter(self.sigmas)

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


def _checked_power_matrix(sigmas) -> np.ndarray:
    """The system of a table build, with a warning when it is ill-conditioned."""
    A = _power_matrix(sigmas)
    cond = float(np.linalg.cond(A, 2))
    if cond > _COND_WARN:
        msg = f"starting-weight system is severely ill-conditioned (cond ~ {cond:.2e}, exponents {tuple(sigmas)})"
        warnings.warn(msg, stacklevel=2)
    return A


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
    that node whole, so those r rows differ in rounding.  That is also
    where a cell of a study, which reads a prefix of its column's longest
    table (``memory.study_tables``), can differ from a call on its own."""
    if cset.m == 0:
        return np.zeros((n_max + 1, 0))
    return shared_table((alpha, cset.sigmas), n_max, lambda n: _starting_weights(alpha, cset.sigmas, n))


def _starting_weights(alpha: float, sigmas, n_max: int) -> np.ndarray:
    W = np.linalg.solve(_checked_power_matrix(sigmas), _fractional_rhs(alpha, sigmas, n_max)).T
    W[0] = 0.0
    return W


def d1_weight_table(cset: CorrectionSet, n_max: int) -> np.ndarray:
    """Correction weights u_{n,1..m} for n = 0..n_max, shape (n_max+1, m),
    making the averaged first difference exact on t^{s_r}, s_r the exponents
    of ``cset``: row n solves

        sum_k u_{n,k} k^{s_r} = s_r/2 ((n+1)^{s_r-1} + n^{s_r-1})
                                - ((n+1)^{s_r} - n^{s_r}).

    Row 0 holds 0^(s_r - 1), so s_r >= 1 is required.  The wave's
    U-identity passes its exponents sigma_r, its V-identity sigma_r - 1.
    """
    sigmas = cset.sigmas
    if cset.m == 0:
        return np.zeros((n_max + 1, 0))
    if any(s < 1.0 for s in sigmas):
        raise ValueError(f"averaged-difference corrections need sigma_r >= 1, got sigma = {sigmas}")
    return shared_table(("d1", sigmas), n_max, lambda n: _d1_weights(sigmas, n))


def _d1_weights(exponents, n_max: int) -> np.ndarray:
    ns = np.arange(n_max + 1, dtype=float)
    rhs = np.empty((len(exponents), n_max + 1))
    for r, s in enumerate(exponents):
        rhs[r] = s / 2.0 * ((ns + 1.0) ** (s - 1.0) + ns ** (s - 1.0)) - ((ns + 1.0) ** s - ns**s)
    return np.linalg.solve(_checked_power_matrix(exponents), rhs).T


def vandermonde_diagnostics(alpha: float, cset: CorrectionSet) -> VandermondeDiagnostics:
    """2-norm condition number of the exactness system and the maximum
    residual of its double-precision solution over n = 1..100."""
    if cset.m < 1:
        raise ValueError("needs at least one correction exponent")
    A = _power_matrix(cset.sigmas)
    rhs = _fractional_rhs(alpha, cset.sigmas, 100)[:, 1:]
    resid = A @ np.linalg.solve(A, rhs) - rhs
    return VandermondeDiagnostics(float(np.linalg.cond(A, 2)), float(np.max(np.abs(resid))))


def check_terms(nu, alphas) -> tuple[tuple, tuple]:
    """The weights nu_j and orders alpha_j of the fractional terms
    sum_j nu_j D_c^{alpha_j} as float tuples, checked: equal-length and
    nonempty, nu_1 > 0 and nu_j >= 0, orders nonincreasing in (0, 1]."""
    nu = tuple(float(v) for v in nu)
    al = tuple(float(a) for a in alphas)
    if len(nu) != len(al) or not nu:
        raise ValueError("nu and alphas must be equal-length and nonempty")
    # each check is written so that NaN fails it
    if not nu[0] > 0 or not all(v >= 0 for v in nu):
        raise ValueError(f"nu_1 > 0 and nu_j >= 0 required, got nu = {nu}")
    if any(not 0 < a <= 1 for a in al):
        raise ValueError(f"orders must lie in (0, 1], got alphas = {al}")
    if any(b > a for a, b in zip(al, al[1:])):
        raise ValueError(f"orders must be nonincreasing, got alphas = {al}")
    return nu, al


def wsgl_terms(nu, alphas, tau: float, n_t: int, cset: CorrectionSet) -> list:
    """The memory terms nu_j tau^(-alpha_j) (WSGL weights to lag n_t + the
    starting-weight table of ``cset``, none when it is empty), one per term."""
    return [
        Term(v * tau ** (-a), wsgl_weights(a, n_t), starting_weight_table(a, cset, n_t) if cset.m else None)
        for v, a in zip(nu, alphas)
    ]


def l1_terms(nu, alphas, tau: float, n_t: int) -> list:
    """The memory terms nu_j (L1 weights of order alpha_j to lag n_t), one
    per term."""
    return [Term(v, l1_weights(a, n_t, tau)) for v, a in zip(nu, alphas)]
