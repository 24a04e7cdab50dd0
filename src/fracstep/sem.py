"""Legendre-Gauss-Lobatto spectral-element toolkit on an interval.

Piecewise polynomials on a partition, continuous across element interfaces,
with homogeneous Dirichlet conditions imposed by constraining the two boundary
degrees of freedom.  Mass integrals use the element's own LGL rule (diagonal
mass in the nodal basis); stiffness integrals are exact since the integrand
degree stays within the rule.

LGL nodes follow the classical Newton iteration on (1-x^2) P_N'(x) with
Chebyshev-Gauss-Lobatto starting guesses; see Canuto, Hussaini, Quarteroni &
Zang, "Spectral Methods in Fluid Dynamics", Sec. 2.3.  A mesh builds every
rule it needs, those of its elements and the finer ones of its error norms,
in one Newton pass over its distinct degrees (``lgl_rules``).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = ["SpectralMesh", "h1_projection", "spd_inverse"]


def lgl_rules(degrees) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Legendre-Gauss-Lobatto nodes and quadrature weights on [-1, 1] of each
    degree N in ``degrees`` (>= 1), keyed by N, from one Newton pass.

    Rule N has N+1 nodes (the roots of (1-x^2) P_N'(x), endpoints included)
    and weights w_j = 2 / (N (N+1) P_N(x_j)^2); it is exact for polynomials
    of degree <= 2N-1.  The nodes of all the distinct degrees are iterated as
    one vector, sorted by degree: each iteration runs the recurrence once, up
    to the largest live degree, and reads each degree's P_N and P_{N-1} at
    k = N, and a degree stops at its own convergence step (at most 50), so
    each rule has the bits of a pass over that degree alone.
    """
    degs = sorted({int(N) for N in degrees})
    if not degs or degs[0] < 1:
        raise ValueError(f"degrees N >= 1 required, got {degs}")
    sizes = [N + 1 for N in degs]
    ends = np.cumsum(sizes)
    N, start = np.repeat(degs, sizes), np.repeat(ends - sizes, sizes)  # each node's degree and rule
    j = np.arange(len(N)) - start  # each node's index in its rule
    # Chebyshev-Gauss-Lobatto initial guess, then Newton on the Legendre
    # recurrence, which carries P_{k-1} and P_k at the nodes
    x = -np.cos(np.pi * j / N)
    P = np.empty_like(x)
    live = np.arange(len(x))  # the nodes of the degrees still iterating, in degree order
    for _ in range(50):
        xl, Nl = x[live], N[live]
        first = np.flatnonzero(np.diff(Nl, prepend=0))  # where each live degree's nodes start
        rule = {int(Nl[a]): slice(a, e) for a, e in zip(first, [*first[1:], len(Nl)])}
        prev, Pk = np.ones(len(xl)), xl
        PN, PN1 = xl.copy(), prev.copy()  # P_N and P_{N-1} of each node's own N
        for k in range(2, Nl[-1] + 1):
            prev, Pk = Pk, ((2 * k - 1) * xl * Pk - (k - 1) * prev) / k
            if k in rule:
                PN[rule[k]], PN1[rule[k]] = Pk[rule[k]], prev[rule[k]]
        x[live] = xl - (xl * PN - PN1) / ((Nl + 1) * PN)
        P[live] = PN
        moving = ~(np.maximum.reduceat(np.abs(x[live] - xl), first) < 1e-15)
        live = live[np.repeat(moving, np.diff(first, append=len(Nl)))]
        if not live.size:
            break
    w = 2.0 / (N * (N + 1) * P**2)
    # enforce exact symmetry of each computed rule
    mirror = start + N - j  # the node at -x
    x = 0.5 * (x - x[mirror])
    w = 0.5 * (w + w[mirror])
    return {d: (x[e - n : e], w[e - n : e]) for d, n, e in zip(degs, sizes, ends)}


def _off_diagonal(A: np.ndarray) -> np.ndarray:
    """The (n, n - 1) entries of a square A off its diagonal, each row in order."""
    n = len(A)
    return A[~np.eye(n, dtype=bool)].reshape(n, n - 1)


def _barycentric_weights(x: np.ndarray) -> np.ndarray:
    return 1.0 / np.prod(_off_diagonal(np.subtract.outer(x, x)), axis=1)


def _diff_matrix(x: np.ndarray) -> np.ndarray:
    """Differentiation matrix of the Lagrange basis on nodes x (barycentric)."""
    b = _barycentric_weights(x)
    D = b / b[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        D /= np.subtract.outer(x, x)
    np.fill_diagonal(D, -np.sum(_off_diagonal(D), axis=1))
    return D


def _lagrange_eval_matrix(nodes: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """E with E[i, j] = l_j(pts[i]) for the Lagrange basis on ``nodes``; a
    point on a node takes that node's row of the identity."""
    E = np.subtract.outer(pts, nodes)
    hit = E == 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        np.divide(_barycentric_weights(nodes), E, out=E)
        E /= np.sum(E, axis=1, keepdims=True)
    rows = hit.any(axis=1)
    E[rows] = hit[rows]
    return E


class SpectralMesh:
    """Partition of (a, b) with per-element LGL nodes and a shared-interface
    global degree-of-freedom numbering.

    Parameters
    ----------
    breakpoints : strictly increasing element boundaries x_0 < ... < x_M.
    degrees : polynomial degree N_i of each element (>= 1).
    """

    def __init__(self, breakpoints, degrees):
        brk = np.asarray(breakpoints, dtype=float)
        degs = tuple(int(d) for d in degrees)
        if len(brk) < 2 or not np.all(np.isfinite(brk)) or np.any(np.diff(brk) <= 0):
            raise ValueError(f"breakpoints must be finite and strictly increasing, got {brk.tolist()}")
        if len(degs) != len(brk) - 1:
            raise ValueError("one degree per element required")
        if any(d < 1 for d in degs):
            raise ValueError("element degrees must be >= 1")
        if sum(degs) < 2:
            raise ValueError(f"breakpoints {brk.tolist()} with degrees {degs} leave no interior degree of freedom")
        self.breakpoints = brk
        self.degrees = degs
        # the element rules and the N + 16 rules of the error norms, from one Newton pass
        self._rules = lgl_rules(degs + tuple(N + 16 for N in degs))
        self._dref = {N: _diff_matrix(self._rules[N][0]) for N in set(degs)}

        nodes: list[float] = []
        self.element_dofs: list[np.ndarray] = []
        for i, N in enumerate(degs):
            a, b = brk[i], brk[i + 1]
            xe = a + (self._rules[N][0] + 1.0) * (b - a) / 2.0
            idx = []
            for k in range(N + 1):
                if i > 0 and k == 0:
                    idx.append(self.element_dofs[i - 1][-1])
                else:
                    nodes.append(xe[k])
                    idx.append(len(nodes) - 1)
            self.element_dofs.append(np.array(idx, dtype=int))
        self.nodes = np.array(nodes)
        self.n_dofs = len(nodes)
        self.boundary = np.array([0, self.n_dofs - 1], dtype=int)
        self.interior = np.arange(1, self.n_dofs - 1, dtype=int)
        self._forms: AssembledForms | None = None
        self._dense_rules: list[tuple[np.ndarray, np.ndarray, np.ndarray]] | None = None

    def __repr__(self) -> str:
        return f"SpectralMesh({self.breakpoints.tolist()}, {self.degrees})"

    def element_nodes(self, i: int) -> np.ndarray:
        return self.nodes[self.element_dofs[i]]

    def forms(self) -> "AssembledForms":
        if self._forms is None:
            self._forms = assemble(self)
        return self._forms

    def _dense_quadrature(self):
        """Per-element refined LGL rule plus the evaluation matrix of the
        element basis at those points; used for error norms."""
        if self._dense_rules is None:
            rules = []
            for i, N in enumerate(self.degrees):
                a, b = self.breakpoints[i], self.breakpoints[i + 1]
                xq, wq = self._rules[N + 16]
                xp = a + (xq + 1.0) * (b - a) / 2.0
                wp = wq * (b - a) / 2.0
                E = _lagrange_eval_matrix(self.element_nodes(i), xp)
                rules.append((xp, wp, E))
            self._dense_rules = rules
        return self._dense_rules

    def l2_norm_against(self, coeffs: np.ndarray, exact=None):
        """L2 norm of (interpolant - exact) by dense per-element quadrature;
        with exact=None, the norm of the interpolant itself.  A stack of
        coefficient vectors (levels, n_dofs) gives one norm per level, with
        ``exact(x)`` then of shape (levels, len(x))."""
        coeffs = np.asarray(coeffs, dtype=float)
        total = np.zeros(coeffs.shape[:-1])
        for i, (xp, wp, E) in enumerate(self._dense_quadrature()):
            vals = coeffs[..., self.element_dofs[i]] @ E.T
            if exact is not None:
                vals = vals - exact(xp)
            total += (vals * vals) @ wp
        return np.sqrt(total) if coeffs.ndim > 1 else float(np.sqrt(total))


@dataclass(frozen=True)
class AssembledForms:
    """Mass and stiffness forms of the mesh.  ``mass_diag`` is the diagonal
    LGL-quadrature mass over all dofs; ``stiffness`` the exact (integrated)
    stiffness matrix.  Restrictions to the zero-boundary space are provided
    by ``mass0``/``stiffness0``."""

    mesh: SpectralMesh
    mass_diag: np.ndarray
    stiffness: np.ndarray

    def mass0(self) -> np.ndarray:
        return self.mass_diag[self.mesh.interior]

    def stiffness0(self) -> np.ndarray:
        idx = self.mesh.interior
        return self.stiffness[np.ix_(idx, idx)]

    @cached_property
    def stiffness0_inverse(self) -> np.ndarray:
        """Read-only inverse of ``stiffness0()``, which is SPD by construction."""
        inv = spd_inverse(self.stiffness0())
        inv.setflags(write=False)
        return inv

    @cached_property
    def modes(self) -> tuple[np.ndarray, np.ndarray]:
        """Read-only modal basis (Phi, lam), lam ascending, with Phi^T Md Phi = I
        and Phi^T S0 Phi = diag(lam): eigh(Md^1/2 S0^-1 Md^1/2), lam = 1 / its
        eigenvalues, puts eigh's error of about eps * (largest eigenvalue) on
        the high modes; eigh(Md^-1/2 S0 Md^-1/2) puts it on the low ones."""
        root = np.sqrt(self.mass0())
        theta, W = np.linalg.eigh(root[:, None] * self.stiffness0_inverse * root)
        Phi, lam = W[:, ::-1] / root[:, None], 1.0 / theta[::-1]
        for a in (Phi, lam):
            a.setflags(write=False)
        return Phi, lam


def assemble(mesh: SpectralMesh) -> AssembledForms:
    """Assemble the diagonal quadrature mass and the exact stiffness matrix."""
    Md = np.zeros(mesh.n_dofs)
    S = np.zeros((mesh.n_dofs, mesh.n_dofs))
    for i, N in enumerate(mesh.degrees):
        h = mesh.breakpoints[i + 1] - mesh.breakpoints[i]
        idx = mesh.element_dofs[i]
        _, wr = mesh._rules[N]
        D = mesh._dref[N]
        Md[idx] += wr * h / 2.0
        Se = (2.0 / h) * (D.T * wr) @ D
        S[np.ix_(idx, idx)] += Se
    Md.setflags(write=False)
    S.setflags(write=False)
    return AssembledForms(mesh, Md, S)


def interpolate(f, mesh: SpectralMesh) -> np.ndarray:
    """Nodal interpolant of f: coefficients are the values at the global
    LGL nodes."""
    return np.asarray(f(mesh.nodes), dtype=float) * np.ones(mesh.n_dofs)


def h1_projection(f, mesh: SpectralMesh) -> np.ndarray:
    """H1-seminorm projection onto the zero-boundary space: the coefficients
    u with (d/dx (u - f), d/dx v) = 0 for all v in the space.  f must vanish
    at both endpoints."""
    forms = mesh.forms()
    fn = interpolate(f, mesh)
    rhs = (forms.stiffness @ fn)[mesh.interior]
    out = np.zeros(mesh.n_dofs)
    out[mesh.interior] = forms.stiffness0_inverse @ rhs
    return out


def spd_inverse(A: np.ndarray) -> np.ndarray:
    """Inverse L^-T L^-1 of a symmetric positive definite matrix from its
    Cholesky factor L; ``np.linalg.LinAlgError`` if A is not positive
    definite.  For the small systems of a 1D mesh, a repeated solve is then
    one mat-vec."""
    Linv = np.linalg.inv(np.linalg.cholesky(A))
    return Linv.T @ Linv
