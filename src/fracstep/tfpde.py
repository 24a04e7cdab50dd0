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
max(m1, m2, m3) steps couple through the starting weights and are solved as a
single dense block (the equations are linear in the unknowns).  L1-in-time
baselines with the same spatial kernel are included for comparison studies.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .corrections import (
    CorrectionSet,
    d1_u_weight_table,
    d1_v_weight_table,
    starting_weight_table,
)
from .glweights import l1_weights, step_count, wsgl_weights
from .sem import SpectralMesh, h1_projection

__all__ = [
    "WaveProblem",
    "SubdiffusionProblem",
    "FieldHistory",
    "solve_wave",
    "solve_subdiffusion",
    "solve_wave_l1_baseline",
    "solve_subdiffusion_l1_baseline",
    "l2_error",
    "export_history_csv",
]


@dataclass(frozen=True)
class WaveProblem:
    """Diffusion-wave problem
    d2U/dt2 + nu * D_c^{1+alpha} U = mu * d2U/dx2 + f(x,t)
    with homogeneous Dirichlet data, U(.,0) = phi0, dU/dt(.,0) = psi0."""

    nu: float
    mu: float
    source: callable
    phi0: callable
    psi0: callable
    alpha: float
    T: float
    mesh: SpectralMesh

    def __post_init__(self):
        if self.mu <= 0 or self.nu < 0:
            raise ValueError("mu > 0 and nu >= 0 required")
        if not 0 < self.alpha <= 1:
            raise ValueError("alpha in (0, 1] required")
        if self.T <= 0:
            raise ValueError("T > 0 required")


@dataclass(frozen=True)
class SubdiffusionProblem:
    """Two-term subdiffusion problem
    D_c^{alpha1} U + nu * D_c^{alpha2} U = mu * d2U/dx2 + f(x,t)."""

    alpha1: float
    alpha2: float
    nu: float
    mu: float
    source: callable
    phi0: callable
    T: float
    mesh: SpectralMesh

    def __post_init__(self):
        if self.mu <= 0 or self.nu < 0:
            raise ValueError("mu > 0 and nu >= 0 required")
        for a in (self.alpha1, self.alpha2):
            if not 0 < a <= 1:
                raise ValueError("orders in (0, 1] required")
        if self.T <= 0:
            raise ValueError("T > 0 required")


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

    @property
    def times(self) -> np.ndarray:
        return np.arange(len(self.u)) * self.tau


def _full(mesh: SpectralMesh, interior_rows: np.ndarray) -> np.ndarray:
    out = np.zeros((interior_rows.shape[0], mesh.n_dofs))
    out[:, mesh.interior] = interior_rows
    return out


def _source_rows(problem, mesh: SpectralMesh, n_t: int, tau: float) -> np.ndarray:
    x = mesh.nodes[mesh.interior]
    rows = np.empty((n_t + 1, len(x)))
    for n in range(n_t + 1):
        rows[n] = problem.source(x, n * tau)
    return rows


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

    forms = mesh.forms()
    I = mesh.interior
    Md = forms.mass0()
    S = forms.stiffness0()
    d = len(I)

    g = wsgl_weights(alpha, n_t + 1)
    sc = tau ** (-alpha)
    Wv3 = starting_weight_table(alpha, sigma.truncated(m3).shifted(-1.0), n_t + 1) if m3 else None
    Wu1 = d1_u_weight_table(sigma, m1, n_t) if m1 else None
    Wv2 = d1_v_weight_table(sigma, m2, n_t) if m2 else None

    u0 = h1_projection(problem.phi0, mesh)[I]
    v0 = h1_projection(problem.psi0, mesh)[I]
    fr = _source_rows(problem, mesh, n_t, tau)

    u = np.zeros((n_t + 1, d))
    v = np.zeros((n_t + 1, d))
    u[0], v[0] = u0, v0

    step_mat = np.diag((1.0 / tau + 0.5 * nu * sc * g[0]) * Md) + (mu * tau / 4.0) * S
    step_fac = cho_factor(step_mat)

    def u_corr(n):
        """Correction sum of the trapezoid U-update at step n."""
        if not m1:
            return 0.0
        acc = np.zeros(d)
        for r in range(1, m1 + 1):
            acc += Wu1[n, r - 1] * (u[r] - u[0] - (r * tau) * v[0])
        return acc

    def frac_terms(n, vhat):
        """Known parts of (A^{n+1} + A^n) applied to vhat, excluding the
        implicit g_0 * vhat^{n+1} contribution."""
        acc_n = sc * (vhat[:n].T @ g[n:0:-1]) + sc * g[0] * vhat[n]
        acc_n1 = sc * (vhat[: n + 1].T @ g[n + 1 : 0 : -1])
        if m3:
            w = Wv3[n] + Wv3[n + 1]
            acc = acc_n + acc_n1 + sc * (vhat[1 : m3 + 1].T @ w)
        else:
            acc = acc_n + acc_n1
        return acc

    def rhs_vector(n):
        vhat = v - v[0]
        acc = frac_terms(n, vhat)
        out = Md * (v[n] / tau) - 0.5 * nu * Md * acc
        # the implicit g_0 * vhat^{n+1} term sits in the step matrix acting on
        # v^{n+1}; compensate its v^0 part here
        out += 0.5 * nu * sc * g[0] * Md * v[0]
        if m2:
            vc = np.zeros(d)
            for r in range(1, m2 + 1):
                vc += Wv2[n, r - 1] * (v[r] - v[0])
            out -= Md * (vc / tau)
        out += Md * 0.5 * (fr[n] + fr[n + 1])
        out -= mu * (S @ u[n]) + (mu * tau / 4.0) * (S @ v[n])
        out += 0.5 * mu * (S @ u_corr(n)) if m1 else 0.0
        return out

    if m >= 1:
        _wave_startup_block(
            u, v, m, m1, m2, m3, tau, nu, mu, sc, g, Wv3, Wu1, Wv2, Md, S, fr, d
        )

    for n in range(m, n_t):
        v[n + 1] = cho_solve(step_fac, rhs_vector(n))
        u[n + 1] = u[n] + (tau / 2.0) * (v[n + 1] + v[n]) - u_corr(n)

    return FieldHistory(mesh, tau, _full(mesh, u), _full(mesh, v))


def _wave_startup_block(u, v, m, m1, m2, m3, tau, nu, mu, sc, g, Wv3, Wu1, Wv2, Md, S, fr, d):
    """Solve steps 1..m of the wave scheme as one linear system in the
    stacked unknowns (u^1..u^m, v^1..v^m); the scheme is linear, so the
    coupled block has an exact direct solution."""
    nn = 2 * m * d
    A = np.zeros((nn, nn))
    b = np.zeros(nn)
    eye = np.eye(d)
    Mdd = np.diag(Md)

    def ublk(r):
        return slice((r - 1) * d, r * d)

    def vblk(r):
        return slice((m + r - 1) * d, (m + r) * d)

    for n in range(m):
        r1 = slice(n * d, (n + 1) * d)
        # V-equation at step n -> n+1
        A[r1, vblk(n + 1)] += Mdd / tau
        if n >= 1:
            A[r1, vblk(n)] -= Mdd / tau
        else:
            b[r1] += Md * v[0] / tau
        b[r1] += Md * 0.5 * (fr[n] + fr[n + 1])
        # fractional history, both levels; vhat^k = v^k - v^0
        for k in range(1, n + 2):
            A[r1, vblk(k)] += 0.5 * nu * sc * g[n + 1 - k] * Mdd
            b[r1] += 0.5 * nu * sc * g[n + 1 - k] * Md * v[0]
        for k in range(1, n + 1):
            A[r1, vblk(k)] += 0.5 * nu * sc * g[n - k] * Mdd
            b[r1] += 0.5 * nu * sc * g[n - k] * Md * v[0]
        if m3:
            for r in range(1, m3 + 1):
                wsum = Wv3[n + 1, r - 1] + Wv3[n, r - 1]
                A[r1, vblk(r)] += 0.5 * nu * sc * wsum * Mdd
                b[r1] += 0.5 * nu * sc * wsum * Md * v[0]
        if m2:
            for r in range(1, m2 + 1):
                A[r1, vblk(r)] += Wv2[n, r - 1] / tau * Mdd
                b[r1] += Wv2[n, r - 1] / tau * Md * v[0]
        A[r1, ublk(n + 1)] += 0.5 * mu * S
        if n >= 1:
            A[r1, ublk(n)] += 0.5 * mu * S
        else:
            b[r1] -= 0.5 * mu * (S @ u[0])
        # U-update identity at step n -> n+1
        r2 = slice((m + n) * d, (m + n + 1) * d)
        A[r2, ublk(n + 1)] += eye
        if n >= 1:
            A[r2, ublk(n)] -= eye
        else:
            b[r2] += u[0]
        A[r2, vblk(n + 1)] -= (tau / 2.0) * eye
        if n >= 1:
            A[r2, vblk(n)] -= (tau / 2.0) * eye
        else:
            b[r2] += (tau / 2.0) * v[0]
        if m1:
            for r in range(1, m1 + 1):
                A[r2, ublk(r)] += Wu1[n, r - 1] * eye
                b[r2] += Wu1[n, r - 1] * (u[0] + (r * tau) * v[0])
    try:
        X = np.linalg.solve(A, b)
    except np.linalg.LinAlgError as exc:
        raise RuntimeError("wave startup block is singular") from exc
    for r in range(1, m + 1):
        u[r] = X[(r - 1) * d : r * d]
        v[r] = X[(m + r - 1) * d : (m + r) * d]


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
    mesh = problem.mesh
    a1, a2, nu, mu = problem.alpha1, problem.alpha2, problem.nu, problem.mu
    n_t = step_count(tau, problem.T)
    m = max(m1, m2)
    if m and n_t <= m:
        raise ValueError("horizon too short for the correction stencil")

    forms = mesh.forms()
    I = mesh.interior
    Md = forms.mass0()
    S = forms.stiffness0()
    d = len(I)

    g1 = wsgl_weights(a1, n_t)
    g2 = wsgl_weights(a2, n_t)
    s1 = tau ** (-a1)
    s2 = tau ** (-a2)
    W1 = starting_weight_table(a1, sigma.truncated(m1), n_t) if m1 else None
    W2 = starting_weight_table(a2, sigma.truncated(m2), n_t) if m2 else None
    cutoff = math.ceil(n_t / 5) if drop_far_field else n_t + 1

    u0 = h1_projection(problem.phi0, mesh)[I]
    fr = _source_rows(problem, mesh, n_t, tau)

    uh = np.zeros((n_t + 1, d))  # u - u0
    c_diag = s1 * g1[0] + nu * s2 * g2[0]
    step_mat = np.diag(c_diag * Md) + mu * S
    step_fac = cho_factor(step_mat)

    if m >= 1:
        nn = m * d
        A = np.zeros((nn, nn))
        b = np.zeros(nn)
        Mdd = np.diag(Md)
        for n in range(1, m + 1):
            rows = slice((n - 1) * d, n * d)
            for k in range(1, n + 1):
                A[rows, (k - 1) * d : k * d] += (s1 * g1[n - k] + nu * s2 * g2[n - k]) * Mdd
            if n < cutoff:
                for r in range(1, m + 1):
                    w = 0.0
                    if m1 and r <= m1:
                        w += s1 * W1[n, r - 1]
                    if m2 and r <= m2:
                        w += nu * s2 * W2[n, r - 1]
                    A[rows, (r - 1) * d : r * d] += w * Mdd
            A[rows, rows] += mu * S
            b[rows] = Md * fr[n] - mu * (S @ u0)
        try:
            X = np.linalg.solve(A, b)
        except np.linalg.LinAlgError as exc:
            raise RuntimeError("subdiffusion startup block is singular") from exc
        for r in range(1, m + 1):
            uh[r] = X[(r - 1) * d : r * d]

    for n in range(m + 1, n_t + 1):
        hist = s1 * (uh[:n].T @ g1[n:0:-1]) + nu * s2 * (uh[:n].T @ g2[n:0:-1])
        corr = np.zeros(d)
        if n < cutoff:
            if m1:
                corr += s1 * (uh[1 : m1 + 1].T @ W1[n])
            if m2:
                corr += nu * s2 * (uh[1 : m2 + 1].T @ W2[n])
        rhs = Md * fr[n] - mu * (S @ u0) - Md * (hist + corr)
        uh[n] = cho_solve(step_fac, rhs)

    return FieldHistory(mesh, tau, _full(mesh, uh + u0))


def solve_wave_l1_baseline(problem: WaveProblem, tau: float) -> FieldHistory:
    """First-order baseline for the wave problem: V marches with a backward
    difference, the fractional term D_c^alpha V by the L1 formula at t_n, U by
    the trapezoid update.  Exact in time for solutions linear in t."""
    mesh = problem.mesh
    alpha, nu, mu = problem.alpha, problem.nu, problem.mu
    n_t = step_count(tau, problem.T)
    forms = mesh.forms()
    I = mesh.interior
    Md = forms.mass0()
    S = forms.stiffness0()
    d = len(I)
    bw = l1_weights(alpha, n_t, tau)
    u0 = h1_projection(problem.phi0, mesh)[I]
    v0 = h1_projection(problem.psi0, mesh)[I]
    fr = _source_rows(problem, mesh, n_t, tau)
    u = np.zeros((n_t + 1, d))
    v = np.zeros((n_t + 1, d))
    u[0], v[0] = u0, v0
    step_mat = np.diag((1.0 / tau + nu * bw[0]) * Md) + (mu * tau / 2.0) * S
    step_fac = cho_factor(step_mat)
    for n in range(1, n_t + 1):
        dv = np.diff(v[:n], axis=0)
        hist = dv.T @ bw[1:n][::-1] if n > 1 else np.zeros(d)
        rhs = (
            Md * (v[n - 1] / tau)
            - nu * Md * hist
            + nu * bw[0] * Md * v[n - 1]
            + Md * fr[n]
            - mu * (S @ u[n - 1])
            - (mu * tau / 2.0) * (S @ v[n - 1])
        )
        v[n] = cho_solve(step_fac, rhs)
        u[n] = u[n - 1] + (tau / 2.0) * (v[n] + v[n - 1])
    return FieldHistory(mesh, tau, _full(mesh, u), _full(mesh, v))


def solve_subdiffusion_l1_baseline(problem: SubdiffusionProblem, tau: float) -> FieldHistory:
    """L1-in-time discretization of both Caputo terms with the same spatial
    kernel (the first-order comparison scheme)."""
    mesh = problem.mesh
    a1, a2, nu, mu = problem.alpha1, problem.alpha2, problem.nu, problem.mu
    n_t = step_count(tau, problem.T)
    forms = mesh.forms()
    I = mesh.interior
    Md = forms.mass0()
    S = forms.stiffness0()
    d = len(I)
    b1 = l1_weights(a1, n_t, tau)
    b2 = l1_weights(a2, n_t, tau)
    u0 = h1_projection(problem.phi0, mesh)[I]
    fr = _source_rows(problem, mesh, n_t, tau)
    u = np.zeros((n_t + 1, d))
    u[0] = u0
    c0 = b1[0] + nu * b2[0]
    step_fac = cho_factor(np.diag(c0 * Md) + mu * S)
    for n in range(1, n_t + 1):
        du = np.diff(u[:n], axis=0)
        hist = (du.T @ b1[1:n][::-1] + nu * (du.T @ b2[1:n][::-1])) if n > 1 else np.zeros(d)
        rhs = Md * fr[n] - Md * hist + c0 * Md * u[n - 1]
        u[n] = cho_solve(step_fac, rhs)
    return FieldHistory(mesh, tau, _full(mesh, u))


def l2_error(history: FieldHistory, reference, at="final"):
    """L2-in-space error of the primary field against an exact function
    U(x, t) or a finer FieldHistory on the same mesh.

    at = "final" gives the error at t = T, an integer gives the error at that
    step, and "average" gives (tau * sum_{n=0}^{n_T} ||e^n||^2)^(1/2).
    """
    mesh = history.mesh

    if isinstance(reference, FieldHistory):
        ratio = history.tau / reference.tau
        r = int(round(ratio))
        if r < 1 or abs(ratio - r) > 1e-9:
            raise ValueError("reference resolution must be an integer multiple")
        if history.n_steps * r > reference.n_steps:
            raise ValueError("reference history too short")

        def step_error(n):
            diff = history.u[n] - reference.u[n * r]
            return mesh.l2_norm_against(diff)

    else:

        def step_error(n):
            t = n * history.tau
            return mesh.l2_norm_against(history.u[n], lambda x: reference(x, t))

    if at == "final":
        return step_error(history.n_steps)
    if at == "average":
        total = sum(step_error(n) ** 2 for n in range(history.n_steps + 1))
        return math.sqrt(history.tau * total)
    if isinstance(at, int):
        return step_error(at)
    raise ValueError(f"unknown error mode {at!r}")


def export_history_csv(history: FieldHistory, path) -> None:
    """Write (t, nodal values...) rows; one row per stored step."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x={x:.12g}" for x in history.mesh.nodes])
        for n in range(history.n_steps + 1):
            writer.writerow([f"{n * history.tau:.12g}"] + [f"{val:.16e}" for val in history.u[n]])
