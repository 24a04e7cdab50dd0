"""Time-fractional PDE solvers over the spectral-element spatial kernel.

Two schemes:

* diffusion-wave (order 1 + alpha): the equation is split into the pair
  (U, V = dU/dt); V is advanced by a Crank-Nicolson-type step whose fractional
  memory term is the two-level average of corrected WSGL operators applied to
  V - V(0), and U follows by the trapezoid update.  Starting weights may
  correct the fractional term (m3, exponents sigma_r - 1) and the two
  averaged-difference identities (m1 on U with sigma_r, m2 on V with
  sigma_r - 1).

* multi-term subdiffusion: one corrected WSGL operator per fractional term,
  applied to U - U(0), implicit in space; any number of terms, as the FODE's.

Both are linear with a time-invariant spatial operator, so every march runs in
the mesh's modal coordinates x^ = Phi^T Md x (``AssembledForms.modes``:
Phi^T Md Phi = I, Phi^T S0 Phi = diag(lam)), the fast diagonalisation of
Lynch, Rice & Thomas (Numer. Math. 6, 1964): every run of up to 32 levels,
wave or subdiffusion, is one triangular product per mode (for the wave, U's
trapezoid is folded into the lags of its V unknowns), a step matrix
a Md + b S0 is positive definite exactly when every a + b lam > 0, and the
memory core runs on the modal history, as the time convolution commutes with
any spatial map.  Both start from the H1 projection of the initial data; the
first m steps (the wave's max(m1, m2, m3), the subdiffusion's len(sigma))
couple through the starting weights and are solved together first, one m x m
system per mode.  Each solve evaluates its source once: ``source(x, t)`` is
called with x of shape (1, dofs) and t of shape (levels, 1), and its result
must broadcast to (levels, dofs).
The subdiffusion also has an L1-in-time baseline with the same spatial
kernel, for comparison studies; it shares the corrected scheme's march.
Every fractional term, WSGL or L1, is a ``fracstep.memory`` term.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrections import CorrectionSet, check_terms, d1_weight_table, l1_terms, wsgl_terms
from .glweights import step_count
from .memory import RUN, History, check_march, linear_march, run_inverse, runs, solve_run, startup_matrix
from .sem import SpectralMesh, h1_projection

__all__ = [
    "WaveProblem",
    "SubdiffusionProblem",
    "FieldHistory",
    "solve_wave",
    "solve_subdiffusion",
    "solve_subdiffusion_l1_baseline",
    "l2_error",
]


def _check_coefficients(mu, T) -> None:
    """Reject a bad field-problem coefficient by name; each check is written
    so that NaN fails it."""
    if not mu > 0:
        raise ValueError(f"mu > 0 required, got mu = {mu!r}")
    if not 0 < T < math.inf:
        raise ValueError(f"finite T > 0 required, got T = {T!r}")


@dataclass(frozen=True)
class WaveProblem:
    """Diffusion-wave problem
    d2U/dt2 + nu * D_c^{1+alpha} U = mu * d2U/dx2 + f(x,t)
    with homogeneous Dirichlet data, U(.,0) = phi0, dU/dt(.,0) = psi0.
    ``source`` is f, called once per solve on broadcasting arrays x and t
    (module docstring)."""

    nu: float
    mu: float
    source: callable
    phi0: callable
    psi0: callable
    alpha: float
    T: float
    mesh: SpectralMesh

    def __post_init__(self):
        _check_coefficients(self.mu, self.T)
        if not self.nu >= 0:
            raise ValueError(f"nu >= 0 required, got nu = {self.nu!r}")
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha in (0, 1] required, got alpha = {self.alpha!r}")


@dataclass(frozen=True)
class SubdiffusionProblem:
    """Multi-term subdiffusion problem
    sum_j nu_j D_c^{alpha_j} U = mu * d2U/dx2 + f(x,t), with the term
    weights and orders of ``MultiTermProblem``; ``source`` is f, as for
    ``WaveProblem``."""

    nu: tuple
    alphas: tuple
    mu: float
    source: callable
    phi0: callable
    T: float
    mesh: SpectralMesh

    def __post_init__(self):
        nu, alphas = check_terms(self.nu, self.alphas)
        _check_coefficients(self.mu, self.T)
        object.__setattr__(self, "nu", nu)
        object.__setattr__(self, "alphas", alphas)


@dataclass(frozen=True)
class FieldHistory:
    """Per-step full-space coefficient vectors (boundary entries exactly
    zero); the wave scheme also stores the time-derivative field."""

    mesh: SpectralMesh
    tau: float
    u: np.ndarray
    v: np.ndarray | None = None

    @property
    def n_steps(self) -> int:
        return len(self.u) - 1


def _space(problem, n_t: int, tau: float, solver: str, *fields):
    """Modal basis (Phi, lam), the modal loads Phi^T Md f at t = 0, tau, ...,
    n_t tau from one source call, then the H1 projection of each initial-data
    function: its interior values and modal coordinates."""
    mesh = problem.mesh
    Md, (Phi, lam) = mesh.forms().mass0(), mesh.forms().modes
    f = _on_grid(problem.source, mesh.nodes[mesh.interior], np.arange(n_t + 1) * tau, solver, "source")
    x0 = [h1_projection(p, mesh)[mesh.interior] for p in fields]
    return Phi, lam, (Md * f) @ Phi, *[(x, (Md * x) @ Phi) for x in x0]


def _physical(mesh: SpectralMesh, Phi: np.ndarray, xh: np.ndarray, shift=0.0) -> np.ndarray:
    """The full-width levels Phi xh + shift (boundary entries zero), written
    straight into the returned array."""
    out = np.zeros((len(xh), mesh.n_dofs))
    np.matmul(xh, Phi.T, out=out[:, 1:-1])  # the interior dofs
    out[:, 1:-1] += shift
    return out


def _on_grid(f, x: np.ndarray, t: np.ndarray, caller: str, what: str, space: str = "dofs") -> np.ndarray:
    """``f(x[None, :], t[:, None])`` from one call, broadcast to (levels, points);
    a function that fails on the arrays or does not broadcast names the contract."""
    shape = (len(t), len(x))
    contract = f"{what}(x, t) must broadcast: it is called once, on x of shape (1, {space}), t of shape (levels, 1)"
    try:
        rows = f(x[None, :], t[:, None])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{caller}: the {what} failed on an array t; {contract}") from exc
    try:
        return np.broadcast_to(np.asarray(rows, dtype=float), shape)
    except ValueError as exc:
        got = f"the {what} returned shape {np.shape(rows)}, which does not broadcast to (levels, {space}) = {shape}"
        raise ValueError(f"{caller}: {got}; {contract}") from exc


def _validate_wave_corrections(sigma: CorrectionSet, m1: int, m2: int, m3: int):
    m = max(m1, m2, m3)
    if m > sigma.m:
        raise ValueError("sigma list shorter than requested correction counts")
    if m and any(s <= 1.0 for s in sigma.sigmas[:m]):
        raise ValueError("wave corrections need exponents sigma_r > 1")
    if m1 and sigma.sigmas[m1 - 1] > 3.0:
        raise ValueError("stability requires sigma_{m1} <= 3")
    if m2 and sigma.sigmas[m2 - 1] > 4.0:
        raise ValueError("stability requires sigma_{m2} <= 4")
    if m3 and sigma.sigmas[m3 - 1] > 4.0:
        raise ValueError("stability requires sigma_{m3} <= 4")
    # the V-identity's row 0 holds 0^(sigma_r - 2)
    if m2 and sigma.sigmas[0] < 2.0:
        raise ValueError(f"V-difference corrections need sigma_r >= 2, got sigma = {sigma.truncated(m2).sigmas}")


def solve_wave(problem: WaveProblem, tau: float, sigma: CorrectionSet | tuple = (), m1: int = 0, m2: int = 0,
               m3: int = 0) -> FieldHistory:
    """Advance the coupled U-V diffusion-wave scheme.

    ``sigma`` lists the assumed solution exponents (>1, increasing); m1/m2/m3
    select how many of them correct the averaged U-difference, the averaged
    V-difference, and the fractional memory term respectively.
    """
    sigma = CorrectionSet(sigma)
    _validate_wave_corrections(sigma, m1, m2, m3)
    alpha, nu, mu = problem.alpha, problem.nu, problem.mu
    n_t = step_count(tau, problem.T)
    m = max(m1, m2, m3)
    if m and n_t <= m:
        raise ValueError("horizon too short for the correction stencil")
    Phi, lam, fh, (u0_x, u0), (v0_x, v0) = _space(problem, n_t, tau, "solve_wave", problem.phi0, problem.psi0)

    mem = wsgl_terms((1.0,), (alpha,), tau, n_t + 1, sigma.truncated(m3).shifted(-1.0))
    sc, g = mem[0].scale, mem[0].kernel
    Wu1 = d1_weight_table(sigma.truncated(m1), n_t)
    Wv2 = d1_weight_table(sigma.truncated(m2).shifted(-1.0), n_t)
    uh, vh = np.zeros((2, n_t + 1, len(lam)))  # vh = v - v^0, which the memory acts on
    uh[0] = u0
    if m >= 1:
        _wave_startup_block(uh, vh, m, tau, nu, mu, mem, Wu1, Wv2, fh, problem.mesh, u0_x, v0_x)
    # D vh^{n+1} = (1/tau - nu sc g_0 / 2 - mu tau lam / 4) vh^n - mu lam u^n - nu (K_n + K_{n+1}) / 2 + F^n,
    # K_n the known memory at level n; vh^{n+1} enters holding F^n: the averaged
    # source, the V-correction and the v^0 and U-correction parts of the stiffness term,
    # formed in place to hold no full-size temporary besides the V-correction's
    F = vh[m + 1 :]
    np.add(fh[m:-1], fh[m + 1 :], out=F)
    del fh
    F *= 0.5
    F -= (Wv2[m:n_t] @ vh[1 : m2 + 1]) / tau
    F -= (0.5 * mu * tau) * lam * v0
    # the U-correction uc^n = sum_r u_{n,r} (u^r - u^0 - t_r v^0), r = 1..m1,
    # comes off u^{n+1}: that level enters holding -uc^n + tau v^0
    if m1:
        uh[m + 1 :] = -(Wu1[m:n_t] @ (uh[1 : m1 + 1] - u0 - np.outer(np.arange(1, m1 + 1) * tau, v0)))
        vh[m + 1 :] -= 0.5 * mu * lam * uh[m + 1 :]
    uh[m + 1 :] += tau * v0
    D = 1.0 / tau + 0.5 * nu * sc * g[0] + (mu * tau / 4.0) * lam
    P = 1.0 / tau - 0.5 * nu * sc * g[0] - (mu * tau / 4.0) * lam
    _march_wave(History(mem, vh), uh, vh, m, tau, D, P, -mu * lam, 0.5 * nu)
    return FieldHistory(problem.mesh, tau, _physical(problem.mesh, Phi, uh), _physical(problem.mesh, Phi, vh, v0_x))


def _march_wave(hist: History, uh, vh, start: int, tau: float, D, P, Q, s) -> None:
    """Steps start..n_T-1 of the wave scheme in modal coordinates, whose levels
    vh^{n+1} and uh^{n+1} enter holding their fixed parts F^n and G^n:
    D vh^{n+1} = P vh^n + Q uh^n + F^n - s K, K the known memory at levels n
    and n + 1 summed, and the trapezoid uh^{n+1} = G^n + uh^n
    + tau (vh^{n+1} + vh^n) / 2.

    Each run [a, e) of levels (``memory.runs``) is solved whole.  Divided by
    D (primes), its V unknowns solve one unit lower-triangular Toeplitz
    system per mode, U's trapezoid sum written into the lags: -P' - Q' tau / 2
    + s' c_1 at lag 1, -Q' tau + s' (c_l + c_{l-1}) at lag l >= 2.  The lags
    and the inverses (``memory.run_inverse``, kept as their first columns)
    are formed in extended precision and rounded to double once: rounded
    lags perturb every run alike, which over 2^13 levels of the forced wave
    at alpha = 0.6 moved U by 7.3e-14 and V by 8.0e-14 relative from the
    march level by level, against 1.2e-15 and 4.9e-15 in extended
    precision.  The load of level i is F'^{i-1} + Q' u_known^{i-1} - s'
    times the memory known from the levels below a (``known_run`` plus
    ``known(a-1)``), plus P' v^{a-1} at i = a, where u_known^n = u^{a-1}
    + G^a + ... + G^n + tau v^{a-1} / 2 for n >= a.  The loads times the
    inverses give the run's V in one product, U follows by one cumulative sum
    of the trapezoid, and the history is fed once per run."""
    if not np.all(D > 0):
        raise ValueError("solve_wave: step matrix is not positive definite")
    P, Q, s = P / D, Q / D, s / D
    vh[start + 1 :] /= D
    # the load of level i > start reads F^{i-1} and G^a..G^{i-1}; each G^n is
    # built from v^0 and the startup levels, which F^n holds too, so F names it
    finite = np.isfinite(vh).all(axis=1)
    ext = np.longdouble
    c, Qtau = hist.c[:RUN].astype(ext), Q.astype(ext) * tau
    lags = np.multiply.outer(s, np.append(c[:2], c[2:] + c[1:-1])) - Qtau[:, None]
    lags[:, 1] += Qtau / 2 - P
    inverse = run_inverse(lags, np.ones_like(Qtau), dense=False)
    for k in range(start + 1):
        hist.feed(k)
    for a, e in runs(start + 1, len(vh)):
        memory = hist.known_run(a, e)
        memory[1:] += memory[:-1]
        memory[0] += hist.known(a - 1)
        u_known = np.cumsum(uh[a - 1 : e - 1], axis=0)  # u^{a-1} + G^a + ... + G^{i-1} at level i
        u_known[1:] += (tau / 2.0) * vh[a - 1]
        vh[a] += P * vh[a - 1]
        vh[a:e] = solve_run(inverse, vh[a:e] + Q * u_known - s * memory)
        uh[a:e] += (tau / 2.0) * (vh[a:e] + vh[a - 1 : e - 1])
        uh[a] += uh[a - 1]
        np.cumsum(uh[a:e], axis=0, out=uh[a:e])
        hist.feed(e - 1)
    check_march("solve_wave", vh, start, tau, finite)


def _levels(W: np.ndarray, m: int) -> np.ndarray:
    """Weights W[n, r-1] on x^r - x^0 (r = 1..k) as coefficients of the
    levels x^0..x^m."""
    C = np.zeros((m, m + 1))
    C[:, 1 : W.shape[1] + 1] = W
    C[:, 0] = -W.sum(axis=1)
    return C


def _wave_startup_block(uh, vh, m, tau, nu, mu, mem, Wu1, Wv2, fh, mesh, u0, v0):
    """Solve steps 1..m of the wave scheme, which couple through the starting
    weights, for the modal levels U = (u^1..u^m) and V = (v^1..v^m).  Each
    equation row n (step n -> n+1) is a level-coefficient matrix over the
    levels 0..m, times the identity or mu lam: the V-rows read
    Vu U mu lam + Vv V = B_v, the U-trapezoid rows Kuu U + Kuv V = B_u, so U is
    eliminated by m x m algebra.  With G = Vu Kuu^-1, one m x m system per mode
    k is left, (Vv - mu lam_k G Kuv) V_k = (B_v - G B_u mu lam)_k, of condition
    1.2e3 at most for m <= 4.  The level-0 loads B are formed in physical space
    from u^0 = ``u0`` and v^0 = ``v0``, then projected: lam Phi^T Md u^0 differs
    from Phi^T S0 u^0 by the basis' rounding, 1e-12 relative in V on smooth data."""
    forms = mesh.forms()
    Md, S, (Phi, lam) = forms.mass0(), forms.stiffness0(), forms.modes
    step = np.eye(m, m + 1, 1) - np.eye(m, m + 1)  # x^{n+1} - x^n
    avg = 0.5 * (np.eye(m, m + 1, 1) + np.eye(m, m + 1))  # (x^{n+1} + x^n) / 2
    P = startup_matrix(mem, m)
    # V-equation: V step, memory at both levels and V-correction, and the
    # averaged stiffness term (times mu lam)
    v_on_v = step / tau + 0.5 * nu * _levels(P[:-1] + P[1:], m) + _levels(Wv2[:m], m) / tau
    v_on_u = avg
    # U-trapezoid: u^{n+1} - u^n + U-correction = tau (v^{n+1} + v^n) / 2
    # + sum_r u_{n,r} t_r v^0
    u_on_u = step + _levels(Wu1[:m], m)
    u_on_v = -tau * avg
    u_on_v[:, 0] -= Wu1[:m] @ (np.arange(1, Wu1.shape[1] + 1) * tau)

    b_v = -np.outer(v_on_v[:, 0], Md * v0) - np.outer(v_on_u[:, 0], mu * (S @ u0))
    b_u = -np.outer(u_on_u[:, 0], u0) - np.outer(u_on_v[:, 0], v0)
    Vu, Vv, Kuu, Kuv = v_on_u[:, 1:], v_on_v[:, 1:], u_on_u[:, 1:], u_on_v[:, 1:]
    try:
        Kuu_inv = np.linalg.inv(Kuu)
        G = Vu @ Kuu_inv
        A = Vv - np.multiply.outer(mu * lam, G @ Kuv)  # (modes, m, m)
        loads = 0.5 * (fh[:m] + fh[1 : m + 1]) + (b_v - (G @ b_u) @ (mu * S)) @ Phi
        V = np.linalg.solve(A, loads.T[:, :, None])[:, :, 0].T
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("wave startup block is singular") from exc
    vh[1 : m + 1] = V - (Md * v0) @ Phi
    uh[1 : m + 1] = Kuu_inv @ ((Md * b_u) @ Phi - Kuv @ V)


def _march_subdiffusion(problem: SubdiffusionProblem, tau: float, terms, m: int, solver: str):
    """March uh = U - U(0) mode by mode through (c_0 + mu lam) uh^n + history
    = Phi^T Md f^n - mu lam U(0), with the memory ``terms`` of each fractional
    term.  Steps 1..m couple through the starting weights and are solved as
    one m x m system per mode.  Every later run of levels is one
    lower-triangular Toeplitz system per mode, all modes solved at once
    (``memory.linear_march``), and each run's solution overwrites its loads,
    so the march holds one (levels, modes) array besides the far field."""
    mu = problem.mu
    n_t = step_count(tau, problem.T)
    Phi, lam, uh, (u0_x, u0) = _space(problem, n_t, tau, solver, problem.phi0)
    uh -= mu * lam * u0  # the loads, which the march overwrites run by run with uh = U - U(0)
    uh[0] = 0.0
    hist = History(terms, uh)
    if not np.all(hist.c[0] + mu * lam > 0):
        raise ValueError(f"{solver}: step matrix is not positive definite")
    linear_march(hist, mu * lam, m, solver, tau)
    del hist
    return FieldHistory(problem.mesh, tau, _physical(problem.mesh, Phi, uh, u0_x))


def solve_subdiffusion(problem: SubdiffusionProblem, tau: float, sigma: CorrectionSet | tuple = ()) -> FieldHistory:
    """Advance the subdiffusion scheme: every fractional term acts on
    U - U(0) through a WSGL operator corrected on the exponents ``sigma`` (a
    CorrectionSet or a tuple)."""
    sigma = CorrectionSet(sigma)
    n_t = step_count(tau, problem.T)
    if sigma.m and n_t <= sigma.m:
        raise ValueError("horizon too short for the correction stencil")
    terms = wsgl_terms(problem.nu, problem.alphas, tau, n_t, sigma)
    return _march_subdiffusion(problem, tau, terms, sigma.m, "solve_subdiffusion")


def solve_subdiffusion_l1_baseline(problem: SubdiffusionProblem, tau: float) -> FieldHistory:
    """L1-in-time discretization of every Caputo term with the same spatial
    kernel (the first-order comparison scheme)."""
    terms = l1_terms(problem.nu, problem.alphas, tau, step_count(tau, problem.T))
    return _march_subdiffusion(problem, tau, terms, 0, "solve_subdiffusion_l1_baseline")


def l2_error(history: FieldHistory, reference, at="final"):
    """L2-in-space error of the primary field against an exact function
    U(x, t), called once per element as ``reference(x[None, :], t[:, None])``
    on its quadrature points and the levels' times, or a finer FieldHistory
    on the same mesh.

    at = "final" gives the error at t = T, and "average" gives
    (tau * sum_{n=0}^{n_T} ||e^n||^2)^(1/2).
    """
    if at == "final":
        steps = [history.n_steps]
    elif at == "average":
        steps = list(range(history.n_steps + 1))
    else:
        raise ValueError(f"unknown error mode {at!r}")

    # one quadrature pass over the (levels, dofs) stack of the steps
    if isinstance(reference, FieldHistory):
        ratio = history.tau / reference.tau
        r = int(round(ratio))
        if r < 1 or abs(ratio - r) > 1e-9:
            raise ValueError("reference resolution must be an integer multiple")
        if history.n_steps * r > reference.n_steps:
            raise ValueError("reference history too short")
        errors = history.mesh.l2_norm_against(history.u[steps] - reference.u[[n * r for n in steps]])
    else:
        exact = lambda x: _on_grid(reference, x, np.array(steps) * history.tau, "l2_error", "reference", "points")
        errors = history.mesh.l2_norm_against(history.u[steps], exact)

    if at == "average":
        return math.sqrt(history.tau * float(np.sum(errors**2)))
    return float(errors[0])
