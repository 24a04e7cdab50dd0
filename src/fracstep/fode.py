"""Multi-term fractional ODE solvers.

The primary scheme discretizes

    sum_j nu_j * D_c^{alpha_j} y = f(t, y),   y(0) = y0,

(Caputo derivatives, orders in (0,1], nu_1 > 0) with the corrected WSGL
operator applied to y - y0 per term, solved implicitly step by step.  The
first m steps couple through the starting weights and are solved as one block
(Newton on the nonlinearity, direct solve of the linear part).  L1 and
product-trapezoidal discretizations are provided as baselines and reference
generators.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrections import CorrectionSet, starting_weight_table
from .glweights import SampledPath, l1_weights, step_count, wsgl_weights
from .specfun import gamma

__all__ = [
    "MultiTermProblem",
    "SolverConfig",
    "ErrorReport",
    "ConvergenceError",
    "solve_corrected_wsgl",
    "solve_l1",
    "solve_trapezoidal",
    "error_report",
    "two_term_sigma_rule",
]


class ConvergenceError(RuntimeError):
    """An implicit solve (per-step or startup block) failed to converge."""


@dataclass(frozen=True)
class MultiTermProblem:
    """Problem data: term weights nu_j, orders alpha_j (nonincreasing, in
    (0,1]), right-hand side f(t, y), initial value and horizon."""

    nu: tuple
    alphas: tuple
    rhs: callable
    y0: float
    T: float

    def __post_init__(self):
        nu = tuple(float(v) for v in self.nu)
        al = tuple(float(a) for a in self.alphas)
        if len(nu) != len(al) or not nu:
            raise ValueError("nu and alphas must be equal-length and nonempty")
        if nu[0] <= 0 or any(v < 0 for v in nu):
            raise ValueError("nu_1 > 0 and nu_j >= 0 required")
        if any(not 0 < a <= 1 for a in al):
            raise ValueError("orders must lie in (0, 1]")
        if any(b > a for a, b in zip(al, al[1:])):
            raise ValueError("orders must be nonincreasing")
        if self.T <= 0:
            raise ValueError("T > 0 required")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "alphas", al)

    @property
    def n_terms(self) -> int:
        return len(self.nu)


@dataclass(frozen=True)
class SolverConfig:
    """Time step, per-term correction sets and the tolerances of the coupled
    startup block and per-step solves.  ``corrections`` may be a single
    CorrectionSet (shared by all terms), a sequence of per-term sets, or None."""

    tau: float
    corrections: object = None
    picard_tol: float = 1e-14
    picard_max_iters: int = 100

    def __post_init__(self):
        if self.tau <= 0:
            raise ValueError("tau > 0 required")
        if self.picard_tol <= 0:
            raise ValueError("picard_tol > 0 required")

    def per_term_sets(self, n_terms: int) -> list[CorrectionSet]:
        empty = CorrectionSet(())
        c = self.corrections
        if c is None:
            return [empty] * n_terms
        if isinstance(c, CorrectionSet):
            return [c] * n_terms
        sets = [cs if cs is not None else empty for cs in c]
        if len(sets) != n_terms:
            raise ValueError("one correction set per term required")
        return sets


@dataclass(frozen=True)
class ErrorReport:
    """The three error norms of Section-style convergence studies."""

    max_error: float
    final_error: float
    avg_error: float


def _fd_slope(f, t: float, y: float) -> float:
    h = 1e-7 * max(1.0, abs(y))
    return (f(t, y + h) - f(t, y - h)) / (2.0 * h)


def _newton_scalar(resfun, dres_dy, y_start: float, tol: float, max_iters: int,
                   picard=None) -> float:
    """Scalar Newton with an optional Picard fallback."""
    y = y_start
    for _ in range(max_iters):
        r = resfun(y)
        if abs(r) <= tol * max(1.0, abs(y)):
            return y
        d = dres_dy(y)
        if d == 0.0:
            break
        y_new = y - r / d
        if not math.isfinite(y_new):
            break
        if abs(y_new - y) <= tol * max(1.0, abs(y_new)):
            return y_new
        y = y_new
    if picard is not None:
        y = y_start
        for _ in range(max_iters):
            y_new = picard(y)
            if not math.isfinite(y_new):
                break
            if abs(y_new - y) <= tol * max(1.0, abs(y_new)):
                return y_new
            y = y_new
    raise ConvergenceError("implicit step solve did not converge")


def solve_corrected_wsgl(problem: MultiTermProblem, config: SolverConfig) -> SampledPath:
    """March the corrected-WSGL implicit scheme.

    Each step solves  sum_j nu_j tau^{-a_j} [g-convolution + corrections](yhat)
    = f(t_n, y0 + yhat^n)  for yhat^n = y^n - y0.  Steps 1..m couple through
    the starting weights and are solved as one dense block with the
    nonlinearity handled by Newton iteration (finite-difference slope).
    """
    tau = config.tau
    n_t = step_count(tau, problem.T)
    csets = config.per_term_sets(problem.n_terms)
    m = max(cs.m for cs in csets)
    f = problem.rhs
    y0 = problem.y0

    gs = [wsgl_weights(a, n_t) for a in problem.alphas]
    Ws = [
        starting_weight_table(a, cs, n_t) if cs.m else None
        for a, cs in zip(problem.alphas, csets)
    ]
    scales = [nu * tau ** (-a) for nu, a in zip(problem.nu, problem.alphas)]
    c_diag = sum(s * g[0] for s, g in zip(scales, gs))

    yhat = np.zeros(n_t + 1)

    if m >= 1:
        if n_t < m:
            raise ValueError("horizon too short for the correction stencil")
        # linear part of the coupled startup block: rows n = 1..m
        L = np.zeros((m, m))
        for g, W, s, cs in zip(gs, Ws, scales, csets):
            for n in range(1, m + 1):
                for r in range(1, m + 1):
                    if W is not None and r <= cs.m:
                        L[n - 1, r - 1] += s * W[n, r - 1]
                    if r <= n:
                        L[n - 1, r - 1] += s * g[n - r]
        ts = np.arange(1, m + 1) * tau
        x = np.zeros(m)
        tol = config.picard_tol
        converged = False
        for _ in range(config.picard_max_iters):
            res = L @ x - np.array([f(ts[i], y0 + x[i]) for i in range(m)])
            if np.max(np.abs(res)) <= tol * max(1.0, float(np.max(np.abs(x)))):
                converged = True
                break
            J = L - np.diag([_fd_slope(f, ts[i], y0 + x[i]) for i in range(m)])
            try:
                dx = np.linalg.solve(J, res)
            except np.linalg.LinAlgError as exc:
                raise ConvergenceError("singular startup Jacobian") from exc
            x = x - dx
            if not np.all(np.isfinite(x)):
                raise ConvergenceError("startup iteration diverged")
            if np.max(np.abs(dx)) <= tol * max(1.0, float(np.max(np.abs(x)))):
                converged = True
                break
        if not converged:
            raise ConvergenceError(
                f"startup block did not converge in {config.picard_max_iters} iterations"
            )
        yhat[1 : m + 1] = x

    for n in range(m + 1, n_t + 1):
        known = 0.0
        for g, W, s, cs in zip(gs, Ws, scales, csets):
            known += s * float(np.dot(g[1 : n + 1][::-1], yhat[:n]))
            if W is not None and cs.m:
                known += s * float(np.dot(W[n], yhat[1 : cs.m + 1]))
        tn = n * tau

        def res(x):
            return c_diag * x + known - f(tn, y0 + x)

        def slope(x):
            return c_diag - _fd_slope(f, tn, y0 + x)

        def picard(x):
            return (f(tn, y0 + x) - known) / c_diag

        guess = yhat[n - 1]
        yhat[n] = _newton_scalar(res, slope, guess, 1e-13, config.picard_max_iters, picard)

    return SampledPath(tau, yhat + y0)


def solve_l1(problem: MultiTermProblem, tau: float) -> SampledPath:
    """L1 discretization of every Caputo term (piecewise-linear kernel
    quadrature, first-order baseline):

        sum_j nu_j sum_{k=0}^{n-1} b^{(a_j)}_{n-k-1} (y^{k+1} - y^k) = f(t_n, y^n).
    """
    n_t = step_count(tau, problem.T)
    f = problem.rhs
    bs = [l1_weights(a, n_t, tau) for a in problem.alphas]
    y = np.empty(n_t + 1)
    y[0] = problem.y0
    c_diag = sum(nu * b[0] for nu, b in zip(problem.nu, bs))
    for n in range(1, n_t + 1):
        d = np.diff(y[:n])
        hist = sum(
            nu * float(np.dot(b[1:n][::-1], d)) for nu, b in zip(problem.nu, bs)
        )
        tn = n * tau
        prev = y[n - 1]

        def res(x):
            return c_diag * (x - prev) + hist - f(tn, x)

        def slope(x):
            return c_diag - _fd_slope(f, tn, x)

        def picard(x):
            return prev + (f(tn, x) - hist) / c_diag

        y[n] = _newton_scalar(res, slope, prev, 1e-13, 200, picard)
    return SampledPath(tau, y)


def _trap_kernel(alpha: float, n_t: int, tau: float) -> np.ndarray:
    """Interior convolution weights c_j = a_{n,n-j} (1 <= j <= n-1) of the
    product-trapezoidal rule; index j = n - k."""
    j = np.arange(n_t + 1, dtype=float)
    c = np.zeros(n_t + 1)
    c[1:] = (j[1:] + 1.0) ** (alpha + 1.0) - 2.0 * j[1:] ** (alpha + 1.0) + (j[1:] - 1.0) ** (
        alpha + 1.0
    )
    return tau**alpha / gamma(2.0 + alpha) * c


def _trap_a0(alpha: float, n: int, tau: float) -> float:
    return (
        tau**alpha
        / gamma(2.0 + alpha)
        * ((n - 1.0) ** (alpha + 1.0) - (n - 1.0 - alpha) * float(n) ** alpha)
    )


def solve_trapezoidal(problem: MultiTermProblem, tau: float) -> SampledPath:
    """Product-trapezoidal scheme for the two-term problem with unit weights,
    obtained from the integral form

        (y - y0) + I^{a1-a2}(y - y0) = I^{a1} f(t, y),

    quadratured by the piecewise-linear product rule.  Requires Q = 2,
    nu = (1, 1), alpha_1 > alpha_2.  Second order; used as the reference
    generator for problems without closed-form solutions.
    """
    if problem.n_terms != 2 or problem.nu != (1.0, 1.0):
        raise ValueError("trapezoidal scheme requires exactly two unit-weight terms")
    a1, a2 = problem.alphas
    if not a1 > a2:
        raise ValueError("alpha_1 > alpha_2 required")
    delta = a1 - a2
    n_t = step_count(tau, problem.T)
    f = problem.rhs
    y0 = problem.y0
    cd = _trap_kernel(delta, n_t, tau)
    cf = _trap_kernel(a1, n_t, tau)
    ann_d = tau**delta / gamma(2.0 + delta)
    ann_f = tau**a1 / gamma(2.0 + a1)
    y = np.empty(n_t + 1)
    y[0] = y0
    fvals = np.empty(n_t + 1)
    fvals[0] = f(0.0, y0)
    for n in range(1, n_t + 1):
        # known history: k = 1..n-1 via the convolution kernels, k = 0 via a0
        hist_d = float(np.dot(cd[1:n][::-1], y[1:n] - y0))
        hist_f = float(np.dot(cf[1:n][::-1], fvals[1:n])) + _trap_a0(a1, n, tau) * fvals[0]
        # a0-term of the y-history vanishes since y^0 - y0 = 0
        tn = n * tau

        def res(x):
            return (x - y0) + hist_d + ann_d * (x - y0) - hist_f - ann_f * f(tn, x)

        def slope(x):
            return 1.0 + ann_d - ann_f * _fd_slope(f, tn, x)

        y[n] = _newton_scalar(res, slope, y[n - 1], 1e-13, 200, None)
        fvals[n] = f(tn, y[n])
    return SampledPath(tau, y)


def error_report(path: SampledPath, exact) -> ErrorReport:
    """Max, final-time and averaged (tau * sum_{n>=1} |e^n|^2)^(1/2) errors
    against an exact callable or a finer reference path (whose resolution
    must be an integer multiple of the path's)."""
    if isinstance(exact, SampledPath):
        ratio = path.tau / exact.tau
        r = int(round(ratio))
        if r < 1 or abs(ratio - r) > 1e-9:
            raise ValueError("reference resolution must be an integer multiple")
        if (len(path.values) - 1) * r > len(exact.values) - 1:
            raise ValueError("reference path too short")
        ref = exact.values[:: r][: len(path.values)]
    else:
        ref = np.array([exact(t) for t in path.times])
    e = np.abs(path.values - ref)
    avg = math.sqrt(path.tau * float(np.sum(e[1:] ** 2)))
    return ErrorReport(float(np.max(e)), float(e[-1]), avg)


def two_term_sigma_rule(alpha1: float, alpha2: float, m: int) -> CorrectionSet:
    """Empirical correction exponents for two-term problems with unknown
    regularity: sigma_k = alpha_1 + (alpha_1 - alpha_2)(k - 1)."""
    if not alpha1 > alpha2:
        raise ValueError("alpha_1 > alpha_2 required")
    return CorrectionSet(tuple(alpha1 + (alpha1 - alpha2) * k for k in range(m)))
