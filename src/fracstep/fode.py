"""Multi-term fractional ODE solvers.

The primary scheme discretizes

    sum_j nu_j * D_c^{alpha_j} y = f(t, y),   y(0) = y0,

(Caputo derivatives, orders in (0,1], nu_1 > 0) with the corrected WSGL
operator applied to y - y0 per term, solved implicitly.  The first m steps
couple through the starting weights and are solved as one block.  A problem
that declares f = lam y (``MultiTermProblem.lam``) then marches run by run,
each run one lower-triangular Toeplitz solve (``memory.linear_march``), and
never calls f.  Any other f goes step by step, each step one scalar equation
solved by a secant iteration from the cubic extrapolation of the last four
levels, which carries its slope from step to step: about two evaluations of
f per step.
L1 and product-trapezoidal discretizations are provided as baselines and
reference generators.  All three schemes share one march over one history of
y - y0 (``fracstep.memory``); the trapezoid gets there by the inverse of its
f-rule (``solve_trapezoidal``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrections import CorrectionSet, check_terms, l1_terms, wsgl_terms
from .glweights import SampledPath, reference_stride, step_count
from .memory import History, Term, convolve, linear_march, reciprocal, runs, shared_table, startup_matrix
from .specfun import gamma

__all__ = [
    "MultiTermProblem",
    "ConvergenceError",
    "solve_corrected_wsgl",
    "solve_l1",
    "solve_trapezoidal",
    "error_report",
]


class ConvergenceError(RuntimeError):
    """An implicit solve (per-step or startup block) failed to converge."""


@dataclass(frozen=True)
class MultiTermProblem:
    """Problem data: term weights nu_j, orders alpha_j (nonincreasing, in
    (0,1]; ``check_terms``), right-hand side f(t, y), initial value and
    horizon.  ``lam`` declares f(t, y) = lam y, which the marches then solve
    run by run (``_march``); ``rhs`` must agree with it at t = 0."""

    nu: tuple
    alphas: tuple
    rhs: callable
    y0: float
    T: float
    lam: float | None = None

    def __post_init__(self):
        nu, al = check_terms(self.nu, self.alphas)
        if not 0 < self.T < math.inf:
            raise ValueError(f"finite T > 0 required, got T = {self.T!r}")
        if not abs(self.y0) < math.inf:
            raise ValueError(f"finite y0 required, got y0 = {self.y0!r}")
        if self.lam is not None:
            if not abs(self.lam) < math.inf:
                raise ValueError(f"finite lam required, got lam = {self.lam!r}")
            for y in (self.y0, self.y0 + 1.0):
                if not math.isclose(self.rhs(0.0, y), self.lam * y, rel_tol=1e-12):
                    raise ValueError(f"rhs(0, {y!r}) = {self.rhs(0.0, y)!r} is not lam * y, lam = {self.lam!r}")
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "alphas", al)


_STARTUP_TOL, _STEP_TOL = 1e-14, 1e-13  # Newton: the coupled startup block, each step
_MAX_ITERS = 200  # the iteration cap of the startup block and of each step's solve


def _fd_slope(f, t: float, y: float) -> float:
    h = 1e-7 * max(1.0, abs(y))
    return (f(t, y + h) - f(t, y - h)) / (2.0 * h)


def _implicit_step(f, t_n: float, y0: float, a: float, known: float, b: float, guess: float,
                   d: float) -> tuple[float, float]:
    """Solve r(x) = a*x + known - b*f(t_n, y0 + x) = 0 for x by a chord/secant
    iteration from ``guess``: the first iterate uses the slope ``d`` the previous
    step ended with, each later one the secant slope of the last two iterates.
    An iterate that does not halve |r| is dropped for a finite-difference slope
    at the current x; if that fails too, or an iterate is not finite,
    ``_picard`` takes over from ``guess``.  An iterate is accepted when its
    residual is within _STEP_TOL relative, or its step is, which is tested
    before f is evaluated there: a step whose chord iterate from the guess
    lands within the tolerance costs two evaluations.  Returns (x, d).  A linear f declared by ``lam`` never
    reaches it: its march solves whole runs (``_march``)."""
    isfinite, tol = math.isfinite, _STEP_TOL  # locals: the accepted path calls only f and isfinite
    x = guess
    r = a * x + known - b * f(t_n, y0 + x)
    abs_r = r if r >= 0.0 else -r
    scale = x if x > 1.0 else -x if x < -1.0 else 1.0  # max(1, |x|)
    refreshed = False
    for _ in range(_MAX_ITERS):
        if abs_r <= tol * scale:
            return x, d
        x_new = x - r / d
        if not isfinite(x_new):
            break
        dx = x_new - x
        scale_new = x_new if x_new > 1.0 else -x_new if x_new < -1.0 else 1.0
        if (dx if dx >= 0.0 else -dx) <= tol * scale_new:
            return x_new, d
        r_new = a * x_new + known - b * f(t_n, y0 + x_new)
        if not isfinite(r_new):
            break
        abs_r_new = r_new if r_new >= 0.0 else -r_new
        if abs_r_new <= 0.5 * abs_r:
            d = (r_new - r) / dx
            x, r, abs_r, scale, refreshed = x_new, r_new, abs_r_new, scale_new, False
        elif refreshed:
            break
        else:
            d = a - b * _fd_slope(f, t_n, y0 + x)
            if not 0.0 < abs(d) < math.inf:
                break
            refreshed = True
    return _picard(f, t_n, y0, a, known, b, guess)


def _picard(f, t_n: float, y0: float, a: float, known: float, b: float, x: float) -> tuple[float, float]:
    """Fixed-point iteration x = (b f(t_n, y0 + x) - known) / a from ``x``: a
    contraction where a > b |f'|, also across a kink of f that stalls the secant."""
    for _ in range(_MAX_ITERS):
        x_new = (b * f(t_n, y0 + x) - known) / a
        if not math.isfinite(x_new):
            break
        if abs(x_new - x) <= _STEP_TOL * max(1.0, abs(x_new)):
            return x_new, a  # a: the chord slope it iterates with
        x = x_new
    raise ConvergenceError("implicit step did not converge")


def _startup_block(f, y0: float, tau: float, L: np.ndarray) -> np.ndarray:
    """Newton iteration on the coupled steps 1..m: L x = f(t_r, y0 + x_r)."""
    m = len(L)
    ts = np.arange(1, m + 1) * tau
    x = np.zeros(m)
    for _ in range(_MAX_ITERS):
        res = L @ x - np.array([f(ts[i], y0 + x[i]) for i in range(m)])
        if np.max(np.abs(res)) <= _STARTUP_TOL * max(1.0, float(np.max(np.abs(x)))):
            return x
        J = L - np.diag([_fd_slope(f, ts[i], y0 + x[i]) for i in range(m)])
        try:
            dx = np.linalg.solve(J, res)
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("singular startup Jacobian") from exc
        x = x - dx
        if not np.all(np.isfinite(x)):
            raise ConvergenceError("startup iteration diverged")
        if np.max(np.abs(dx)) <= _STARTUP_TOL * max(1.0, float(np.max(np.abs(x)))):
            return x
    raise ConvergenceError(f"startup block did not converge in {_MAX_ITERS} iterations")


def _march(problem: MultiTermProblem, tau: float, terms, m: int, solver: str,
           b: float = 1.0, fixed=0.0) -> SampledPath:
    """March yhat = y - y0 through  a yhat^n + known = b f(t_n, y0 + yhat^n),
    known from the memory ``terms`` on yhat plus its ``fixed`` part.  Steps
    1..m couple through the starting weights and are solved as one block.
    Later steps go in runs (``memory.runs``): a run reads its far field once
    and feeds the history once.  A linear f = lam y needs no iteration:
    (a - b lam) yhat^n + known = b lam y0 (``memory.linear_march``).  Any
    other f goes level by level (``_implicit_step``)."""
    n_t = step_count(tau, problem.T)
    f, y0, lam = problem.rhs, problem.y0, problem.lam
    yhat = np.zeros(n_t + 1)
    if lam is not None:
        yhat[1:] = b * lam * y0
        linear_march(History(terms, yhat, fixed), np.array([-b * lam]), m, solver, tau, ConvergenceError)
        return SampledPath(tau, yhat + y0)
    if m >= 1:
        try:
            yhat[1 : m + 1] = _startup_block(f, y0, tau, startup_matrix(terms, m)[1:])
        except ConvergenceError as exc:
            raise ConvergenceError(f"{solver}: steps 1..{m}, t <= {m * tau:g}: {exc}") from exc
    mem = History(terms, yhat, fixed)
    # Python floats: the scalar step runs in the interpreter; the first step
    # starts from the chord slope a, which its own iterates refine
    a = d = float(mem.c[0])
    for k in range(m + 1):
        mem.feed(k)
    y1, y2, y3, y4 = (float(yhat[max(m - k, 0)]) for k in range(4))  # the last four levels, newest first
    try:
        for s, e in runs(m + 1, n_t + 1):
            for n, far in zip(range(s, e), mem.far_run(s, e)):
                known = far + float(mem.near(n))
                if n > 3:  # the cubic through the last four levels
                    guess = 4.0 * (y1 + y3) - 6.0 * y2 - y4
                else:  # over steps 1..3, the polynomial through the n levels 0..n-1
                    guess = (y1, 2.0 * y1 - y2, 3.0 * (y1 - y2) + y3)[n - 1]
                x, d = _implicit_step(f, n * tau, y0, a, known, b, guess, d)
                yhat[n] = x
                y1, y2, y3, y4 = x, y1, y2, y3
            mem.feed(e - 1)
    except ConvergenceError as exc:
        raise ConvergenceError(f"{solver}: step {n}, t = {n * tau:g}: {exc}") from exc
    return SampledPath(tau, yhat + y0)


def solve_corrected_wsgl(problem: MultiTermProblem, tau: float, sigma: CorrectionSet | tuple = ()) -> SampledPath:
    """March the corrected-WSGL implicit scheme; ``sigma`` corrects every term.

    Each step solves  sum_j nu_j tau^{-a_j} [g-convolution + corrections](yhat)
    = f(t_n, y0 + yhat^n)  for yhat^n = y^n - y0.  Steps 1..m couple through
    the starting weights and are solved as one dense block (``_startup_block``).
    """
    cset = CorrectionSet(sigma)
    n_t = step_count(tau, problem.T, cset.m, "solve_corrected_wsgl")
    terms = wsgl_terms(problem.nu, problem.alphas, tau, n_t, cset)
    return _march(problem, tau, terms, cset.m, "solve_corrected_wsgl")


def solve_l1(problem: MultiTermProblem, tau: float) -> SampledPath:
    """L1 discretization of every Caputo term (piecewise-linear kernel
    quadrature, first-order baseline):

        sum_j nu_j sum_{k=0}^{n-1} b^{(a_j)}_{n-k-1} (y^{k+1} - y^k) = f(t_n, y^n).
    """
    terms = l1_terms(problem.nu, problem.alphas, tau, step_count(tau, problem.T))
    return _march(problem, tau, terms, 0, "solve_l1")


def _trap_kernel(alpha: float, n_t: int) -> np.ndarray:
    """Convolution weights c_j = a_{n,n-j} (0 <= j <= n-1) of the
    product-trapezoidal rule for I^alpha, divided by tau^alpha /
    Gamma(2 + alpha), so c_0 = 1; index j = n - k."""
    j = np.arange(n_t + 1, dtype=float)
    c = np.ones(n_t + 1)
    c[1:] = (j[1:] + 1.0) ** (alpha + 1.0) - 2.0 * j[1:] ** (alpha + 1.0) + (j[1:] - 1.0) ** (
        alpha + 1.0
    )
    return c


def _trap_tables(a1: float, a2: float, n_t: int) -> np.ndarray:
    """The tau-free columns G = 1 / c^(a1), G c^(a1-a2) and G n^a1 of
    ``_trap_memory``, shape (n_t + 1, 3)."""
    G = reciprocal(_trap_kernel(a1, n_t))
    rhs = np.stack([_trap_kernel(a1 - a2, n_t), np.arange(n_t + 1.0) ** a1], axis=1)
    return np.column_stack([G, convolve(G, rhs)])


def _trap_memory(a1: float, a2: float, n_t: int, tau: float):
    """The kernel G cd, b = cf_0 and G u of ``solve_trapezoidal``.  The rules
    are cf = cf_0 c^(a1) and cd = s' c^(a1-a2) + 1 (at lag 0), with the
    unscaled kernels c^(a) of ``_trap_kernel``, so G = 1 / c^(a1),
    G cd = s' G c^(a1-a2) + G and G u = tau^a1 / Gamma(1 + a1) G n^a1: scales
    times the tau-free tables of (a1, a2), built once per study
    (``memory.shared_table``)."""
    G, H, V = shared_table(("trap", a1, a2), n_t, lambda n: _trap_tables(a1, a2, n)).T
    k = tau ** (a1 - a2) / gamma(2.0 + a1 - a2) * H + G
    return k, tau**a1 / gamma(2.0 + a1), tau**a1 / gamma(1.0 + a1) * V


def solve_trapezoidal(problem: MultiTermProblem, tau: float) -> SampledPath:
    """Product-trapezoidal scheme for the two-term problem with unit weights,
    obtained from the integral form

        (y - y0) + I^{a1-a2}(y - y0) = I^{a1} f(t, y),

    quadratured by the piecewise-linear product rule.  Requires Q = 2,
    nu = (1, 1), alpha_1 > alpha_2.  Second order; used as the reference
    generator for problems without closed-form solutions.

    With CD and CF the Toeplitz matrices of the two rules (CD with the
    identity), the scheme is CD yhat = CF F + a_0 F^0, a_0 the endpoint
    weights.  The rule is exact on constants, so the weights of level n sum
    to u_n = t_n^{a1} / Gamma(1 + a1): CD yhat = CF (F - F^0) + u F^0.  Times
    G = cf_0 CF^{-1} this is one kernel G cd on yhat, b = cf_0 and the load
    F^0 (G u - cf_0), and a_0, which cancels to O(n^-2), is never formed.
    """
    if problem.nu != (1.0, 1.0):
        raise ValueError("trapezoidal scheme requires exactly two unit-weight terms")
    a1, a2 = problem.alphas
    if not a1 > a2:
        raise ValueError("alpha_1 > alpha_2 required")
    k, b, gu = _trap_memory(a1, a2, step_count(tau, problem.T), tau)
    f0 = problem.rhs(0.0, problem.y0)
    return _march(problem, tau, [Term(1.0, k)], 0, "solve_trapezoidal", b, f0 * (b - gu))


def error_report(path: SampledPath, exact) -> dict:
    """The errors {"max", "final", "avg"}: max, final-time and averaged
    (tau * sum_{n>=1} |e^n|^2)^(1/2), against an exact callable or a finer
    reference path, read at the path's ``reference_stride``.  The callable
    is called once with the array of times; a scalar result is broadcast."""
    if isinstance(exact, SampledPath):
        r = reference_stride(path.tau, path.n_steps, exact.tau, exact.n_steps)
        ref = exact.values[:: r][: len(path.values)]
    else:
        ref = np.broadcast_to(np.asarray(exact(path.times), dtype=float), path.values.shape)
    e = np.abs(path.values - ref)
    avg = math.sqrt(path.tau * float(np.sum(e[1:] ** 2)))
    return {"max": float(np.max(e)), "final": float(e[-1]), "avg": avg}

