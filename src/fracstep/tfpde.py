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
  applied to U - U(0), implicit in space.

Both start from the H1 projection of the initial data; the first
m = max(m1, m2, m3) steps couple through the starting weights and are solved
together before the march (the equations are linear in the unknowns).  The
subdiffusion block is one dense md x md system.  The wave block's U-trapezoid
rows act on space through the identity alone, so U is eliminated by m x m
algebra and one md x md system in V is left: half the unknowns of the stacked
(U, V) block, and three orders of magnitude better conditioned.  Each solve
evaluates its source once, at every level together: ``source(x, t)`` is
called with x of shape (1, dofs) and t of shape (levels, 1), and its result
must broadcast to (levels, dofs).  L1-in-time baselines with the same spatial
kernel are included for comparison studies.
Every fractional term, WSGL or L1, is a ``fracstep.memory`` term; the two
subdiffusion schemes share one march.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .corrections import (
    CorrectionSet,
    d1_u_weight_table,
    d1_v_weight_table,
    starting_weight_table,
)
from .glweights import l1_weights, step_count, wsgl_weights
from .memory import History, Term, startup_matrix
from .sem import SpectralMesh, h1_projection, spd_inverse

__all__ = [
    "WaveProblem",
    "SubdiffusionProblem",
    "FieldHistory",
    "solve_wave",
    "solve_subdiffusion",
    "solve_wave_l1_baseline",
    "solve_subdiffusion_l1_baseline",
    "l2_error",
]


def _check_coefficients(nu, mu, T) -> None:
    """Reject a bad field-problem coefficient by name; each check is written
    so that NaN fails it."""
    if not mu > 0:
        raise ValueError(f"mu > 0 required, got mu = {mu!r}")
    if not nu >= 0:
        raise ValueError(f"nu >= 0 required, got nu = {nu!r}")
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
        _check_coefficients(self.nu, self.mu, self.T)
        if not 0 < self.alpha <= 1:
            raise ValueError(f"alpha in (0, 1] required, got alpha = {self.alpha!r}")


@dataclass(frozen=True)
class SubdiffusionProblem:
    """Two-term subdiffusion problem
    D_c^{alpha1} U + nu * D_c^{alpha2} U = mu * d2U/dx2 + f(x,t);
    ``source`` is f, as for ``WaveProblem``."""

    alpha1: float
    alpha2: float
    nu: float
    mu: float
    source: callable
    phi0: callable
    T: float
    mesh: SpectralMesh

    def __post_init__(self):
        _check_coefficients(self.nu, self.mu, self.T)
        for name, a in (("alpha1", self.alpha1), ("alpha2", self.alpha2)):
            if not 0 < a <= 1:
                raise ValueError(f"{name} in (0, 1] required, got {name} = {a!r}")


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


def _full(mesh: SpectralMesh, interior_rows: np.ndarray) -> np.ndarray:
    out = np.zeros((interior_rows.shape[0], mesh.n_dofs))
    out[:, mesh.interior] = interior_rows
    return out


def _space(mesh: SpectralMesh):
    """Diagonal mass, stiffness matrix and interior indices of the mesh."""
    forms = mesh.forms()
    return forms.mass0(), forms.stiffness0(), mesh.interior


def _source_rows(problem, mesh: SpectralMesh, n_t: int, tau: float, solver: str) -> np.ndarray:
    """The source at every level, (levels, interior dofs), from one call
    ``source(x[None, :], t[:, None])`` with t = 0, tau, ..., n_t tau."""
    x = mesh.nodes[mesh.interior]
    shape = (n_t + 1, len(x))
    contract = (
        "source(x, t) must broadcast: it is called once, with x of shape (1, dofs) and t of shape (levels, 1)"
    )
    try:
        rows = problem.source(x[None, :], (np.arange(n_t + 1) * tau)[:, None])
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{solver}: the source failed on an array t; {contract}") from exc
    try:
        return np.broadcast_to(np.asarray(rows, dtype=float), shape)
    except ValueError as exc:
        raise ValueError(
            f"{solver}: the source returned shape {np.shape(rows)}, which does not broadcast to "
            f"(levels, dofs) = {shape}; {contract}"
        ) from exc


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


def solve_wave(
    problem: WaveProblem,
    tau: float,
    sigma: CorrectionSet | tuple = (),
    m1: int = 0,
    m2: int = 0,
    m3: int = 0,
) -> FieldHistory:
    """Advance the coupled U-V diffusion-wave scheme.

    ``sigma`` lists the assumed solution exponents (>1, increasing); m1/m2/m3
    select how many of them correct the averaged U-difference, the averaged
    V-difference, and the fractional memory term respectively.
    """
    sigma = sigma if isinstance(sigma, CorrectionSet) else CorrectionSet(tuple(sigma))
    _validate_wave_corrections(sigma, m1, m2, m3)
    mesh = problem.mesh
    alpha, nu, mu = problem.alpha, problem.nu, problem.mu
    n_t = step_count(tau, problem.T)
    m = max(m1, m2, m3)
    if m and n_t <= m:
        raise ValueError("horizon too short for the correction stencil")
    Md, S, I = _space(mesh)

    g = wsgl_weights(alpha, n_t + 1)
    sc = tau ** (-alpha)
    Wv3 = starting_weight_table(alpha, sigma.truncated(m3).shifted(-1.0), n_t + 1) if m3 else None
    mem = [Term(sc, g, Wv3)]
    Wu1 = d1_u_weight_table(sigma, m1, n_t)
    Wv2 = d1_v_weight_table(sigma, m2, n_t)
    fr = _source_rows(problem, mesh, n_t, tau, "solve_wave")

    u = np.zeros((n_t + 1, len(I)))
    v = np.zeros((n_t + 1, len(I)))
    u[0] = h1_projection(problem.phi0, mesh)[I]
    v[0] = h1_projection(problem.psi0, mesh)[I]
    if m >= 1:
        _wave_startup_block(u, v, m, tau, nu, mu, mem, Wu1, Wv2, Md, S, fr)
    vh = v - v[0]  # the memory acts on v - v^0; levels above m are filled as they are solved
    # the averaged source, the V-correction, the v^0 compensation of the
    # implicit g_0 vh^{n+1} (see the loop) and the stiffness term of the
    # U-correction are fixed after the startup block
    fixed = Md * (0.5 * (fr[:-1] + fr[1:]) - (Wv2[:n_t] @ vh[1 : m2 + 1]) / tau + 0.5 * nu * sc * g[0] * v[0])
    del fr
    # the U-correction uc^n = sum_r u_{n,r} (u^r - u^0 - t_r v^0), r = 1..m1,
    # comes off u^{n+1}: that level starts at -uc^n, and uc's stiffness term is fixed
    if m1:
        u[m + 1 :] = -(Wu1[m:n_t] @ (u[1 : m1 + 1] - u[0] - np.outer(np.arange(1, m1 + 1) * tau, v[0])))
        fixed[m:] -= 0.5 * mu * (u[m + 1 :] @ S.T)

    step_inv = _step_inverse(np.diag((1.0 / tau + 0.5 * nu * sc * g[0]) * Md) + (mu * tau / 4.0) * S, "solve_wave")
    hist = History(mem, vh)
    for k in range(m + 1):
        hist.feed(k)
    known_next = hist.known(m)
    for n in range(m, n_t):
        # known parts of (A^{n+1} + A^n) vh, the one at n read last step; the
        # implicit g_0 vh^{n+1} sits in the step matrix acting on v^{n+1},
        # whose v^0 part is compensated in ``fixed``
        known_n, known_next = known_next, hist.known(n + 1)
        frac = known_n + sc * g[0] * vh[n] + known_next
        rhs = Md * (v[n] / tau - 0.5 * nu * frac) + fixed[n] - S @ (mu * u[n] + (mu * tau / 4.0) * v[n])
        v[n + 1] = step_inv @ rhs
        vh[n + 1] = v[n + 1] - v[0]
        hist.feed(n + 1)
        u[n + 1] += u[n] + (tau / 2.0) * (v[n + 1] + v[n])
    _check_march("solve_wave", v, m, tau)
    del vh, fixed  # release the working histories before the full-width copies
    return FieldHistory(mesh, tau, _full(mesh, u), _full(mesh, v))


def _levels(W: np.ndarray, m: int) -> np.ndarray:
    """Weights W[n, r-1] on x^r - x^0 (r = 1..k) as coefficients of the
    levels x^0..x^m."""
    C = np.zeros((m, m + 1))
    C[:, 1 : W.shape[1] + 1] = W
    C[:, 0] = -W.sum(axis=1)
    return C


def _wave_startup_block(u, v, m, tau, nu, mu, mem, Wu1, Wv2, Md, S, fr):
    """Solve steps 1..m of the wave scheme, which couple through the starting
    weights, for the levels U = (u^1..u^m) and V = (v^1..v^m); the scheme is
    linear, so the block has an exact direct solution.

    Each equation row n (step n -> n+1, n = 0..m-1) is a level-coefficient
    matrix over the levels 0..m, times Md, mu S or the identity; the known
    level-0 columns move to the right-hand side.  The V-rows read
    Vu U mu S + Vv V Md = B_v.  The U-trapezoid rows act on space through the
    identity only, Kuu U + Kuv V = B_u, with Kuu unit lower bidiagonal plus the
    U-correction columns, so U = Kuu^-1 (B_u - Kuv V) is eliminated by m x m
    algebra.  With G = Vu Kuu^-1 what is left is the md x md system

        (Vv (x) diag(Md) - (G Kuv) (x) mu S) vec V = vec(B_v - G B_u mu S),

    half the unknowns of the stacked (U, V) block.  For m <= 4 its condition
    number is at most about 1.2e3, where the stacked block's is 1.6e5-2.6e6,
    enough to put that block's dense solution off by up to 1e-9 relative."""
    d = len(Md)
    step = np.eye(m, m + 1, 1) - np.eye(m, m + 1)  # x^{n+1} - x^n
    avg = 0.5 * (np.eye(m, m + 1, 1) + np.eye(m, m + 1))  # (x^{n+1} + x^n) / 2
    P = startup_matrix(mem, m)
    # V-equation: V step, memory at both levels and V-correction (times Md),
    # and the averaged stiffness term (times mu S)
    v_on_v = step / tau + 0.5 * nu * _levels(P[:-1] + P[1:], m) + _levels(Wv2[:m], m) / tau
    v_on_u = avg
    # U-trapezoid: u^{n+1} - u^n + U-correction = tau (v^{n+1} + v^n) / 2
    # + sum_r u_{n,r} t_r v^0
    u_on_u = step + _levels(Wu1[:m], m)
    u_on_v = -tau * avg
    u_on_v[:, 0] -= Wu1[:m] @ (np.arange(1, Wu1.shape[1] + 1) * tau)

    b_v = Md * 0.5 * (fr[:m] + fr[1 : m + 1]) - np.outer(v_on_v[:, 0], Md * v[0]) - np.outer(
        v_on_u[:, 0], mu * (S @ u[0])
    )
    b_u = -np.outer(u_on_u[:, 0], u[0]) - np.outer(u_on_v[:, 0], v[0])
    Vu, Vv, Kuu, Kuv = v_on_u[:, 1:], v_on_v[:, 1:], u_on_u[:, 1:], u_on_v[:, 1:]
    try:
        Kuu_inv = np.linalg.inv(Kuu)
        G = Vu @ Kuu_inv
        A = np.kron(Vv, np.diag(Md)) - np.kron(G @ Kuv, mu * S)
        V = np.linalg.solve(A, (b_v - (G @ b_u) @ (mu * S)).ravel()).reshape(m, d)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("wave startup block is singular") from exc
    v[1 : m + 1] = V
    u[1 : m + 1] = Kuu_inv @ (b_u - Kuv @ V)


def _step_inverse(A: np.ndarray, solver: str) -> np.ndarray:
    """Inverse of the SPD step matrix: each step's solve is one mat-vec."""
    try:
        return spd_inverse(A)
    except np.linalg.LinAlgError as exc:
        raise ValueError(f"{solver}: step matrix is not positive definite") from exc


def _check_march(solver: str, x: np.ndarray, m: int, tau: float) -> None:
    """Name the first non-finite level of a finished march, or the startup
    block 1..m that holds it; the march is causal, so the levels before it
    are unaffected."""
    bad = np.flatnonzero(~np.isfinite(x).all(axis=1))
    if bad.size and 1 <= bad[0] <= m:
        raise ValueError(f"{solver}: steps 1..{m}, t <= {m * tau:g}: startup block solution is not finite")
    if bad.size:
        raise ValueError(f"{solver}: step {bad[0]}, t = {bad[0] * tau:g}: solution is not finite")


def _march_subdiffusion(problem: SubdiffusionProblem, tau: float, terms, m: int, solver: str):
    """March uh = U - U(0) through  Md (a uh^n + history) + mu S uh^n
    = Md f^n - mu S U(0), with the memory ``terms`` of both fractional
    terms; steps 1..m couple through the starting weights and are solved as
    one block."""
    mesh, mu = problem.mesh, problem.mu
    n_t = step_count(tau, problem.T)
    Md, S, I = _space(mesh)
    u0 = h1_projection(problem.phi0, mesh)[I]
    rhs = Md * _source_rows(problem, mesh, n_t, tau, solver) - mu * (S @ u0)

    uh = np.zeros((n_t + 1, len(I)))
    if m >= 1:
        A = np.kron(startup_matrix(terms, m)[1:], np.diag(Md)) + np.kron(np.eye(m), mu * S)
        try:
            X = np.linalg.solve(A, rhs[1 : m + 1].ravel())
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("subdiffusion startup block is singular") from exc
        uh[1 : m + 1] = X.reshape(m, -1)

    hist = History(terms, uh)
    step_inv = _step_inverse(np.diag(hist.c[0] * Md) + mu * S, solver)
    for k in range(m + 1):
        hist.feed(k)
    for n in range(m + 1, n_t + 1):
        uh[n] = step_inv @ (rhs[n] - Md * hist.known(n))
        hist.feed(n)
    _check_march(solver, uh, m, tau)
    return FieldHistory(mesh, tau, _full(mesh, uh + u0))


def solve_subdiffusion(
    problem: SubdiffusionProblem,
    tau: float,
    sigma: CorrectionSet | tuple = (),
    m1: int = 0,
    m2: int = 0,
    drop_far_field: bool = False,
) -> FieldHistory:
    """Advance the two-term subdiffusion scheme: both fractional terms act on
    U - U(0) through corrected WSGL operators (m1 terms for order alpha1, m2
    for alpha2, exponents straight from ``sigma``).  ``drop_far_field`` zeroes
    the correction sums for n >= ceil(n_T / 5)."""
    sigma = sigma if isinstance(sigma, CorrectionSet) else CorrectionSet(tuple(sigma))
    if max(m1, m2) > sigma.m:
        raise ValueError("sigma list shorter than requested correction counts")
    n_t = step_count(tau, problem.T)
    m = max(m1, m2)
    if m and n_t <= m:
        raise ValueError("horizon too short for the correction stencil")
    terms = []
    for scale, a, k in ((1.0, problem.alpha1, m1), (problem.nu, problem.alpha2, m2)):
        W = starting_weight_table(a, sigma.truncated(k), n_t) if k else None
        if W is not None and drop_far_field:
            W[math.ceil(n_t / 5) :] = 0.0
        terms.append(Term(scale * tau ** (-a), wsgl_weights(a, n_t), W))
    return _march_subdiffusion(problem, tau, terms, m, "solve_subdiffusion")


def solve_wave_l1_baseline(problem: WaveProblem, tau: float) -> FieldHistory:
    """First-order baseline for the wave problem: V marches with a backward
    difference, the fractional term D_c^alpha V by the L1 formula at t_n, U by
    the trapezoid update.  Exact in time for solutions linear in t."""
    mesh = problem.mesh
    alpha, nu, mu = problem.alpha, problem.nu, problem.mu
    n_t = step_count(tau, problem.T)
    Md, S, I = _space(mesh)
    u = np.zeros((n_t + 1, len(I)))
    v = np.zeros((n_t + 1, len(I)))
    u[0] = h1_projection(problem.phi0, mesh)[I]
    v[0] = h1_projection(problem.psi0, mesh)[I]
    vh = np.zeros_like(v)  # v - v^0
    hist = History([Term(nu, l1_weights(alpha, n_t, tau))], vh)
    c0 = hist.c[0]
    step_inv = _step_inverse(np.diag((1.0 / tau + c0) * Md) + (mu * tau / 2.0) * S, "solve_wave_l1_baseline")
    # the implicit c_0 vh^n sits in the step matrix acting on v^n; its
    # v^0 part is compensated here
    fixed = Md * (_source_rows(problem, mesh, n_t, tau, "solve_wave_l1_baseline") + c0 * v[0])
    hist.feed(0)
    for n in range(1, n_t + 1):
        stiff = S @ (mu * u[n - 1] + (mu * tau / 2.0) * v[n - 1])
        rhs = Md * (v[n - 1] / tau - hist.known(n)) + fixed[n] - stiff
        v[n] = step_inv @ rhs
        vh[n] = v[n] - v[0]
        hist.feed(n)
        u[n] = u[n - 1] + (tau / 2.0) * (v[n] + v[n - 1])
    _check_march("solve_wave_l1_baseline", v, 0, tau)
    return FieldHistory(mesh, tau, _full(mesh, u), _full(mesh, v))


def solve_subdiffusion_l1_baseline(problem: SubdiffusionProblem, tau: float) -> FieldHistory:
    """L1-in-time discretization of both Caputo terms with the same spatial
    kernel (the first-order comparison scheme)."""
    n_t = step_count(tau, problem.T)
    terms = [
        Term(1.0, l1_weights(problem.alpha1, n_t, tau)),
        Term(problem.nu, l1_weights(problem.alpha2, n_t, tau)),
    ]
    return _march_subdiffusion(problem, tau, terms, 0, "solve_subdiffusion_l1_baseline")


def l2_error(history: FieldHistory, reference, at="final"):
    """L2-in-space error of the primary field against an exact function
    U(x, t) or a finer FieldHistory on the same mesh.

    at = "final" gives the error at t = T, an integer gives the error at that
    step, and "average" gives (tau * sum_{n=0}^{n_T} ||e^n||^2)^(1/2).
    """
    if at == "final":
        steps = [history.n_steps]
    elif at == "average":
        steps = list(range(history.n_steps + 1))
    elif isinstance(at, int):
        steps = [at]
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
        times = [n * history.tau for n in steps]
        errors = history.mesh.l2_norm_against(
            history.u[steps], lambda x: np.array([reference(x, t) for t in times])
        )

    if at == "average":
        return math.sqrt(history.tau * float(np.sum(errors**2)))
    return float(errors[0])

