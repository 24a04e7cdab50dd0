"""Benchmark problem catalog shared by the test suite and the CLI configs.

Each factory returns a fully-specified problem (and the exact solution where
one exists) for the convergence studies: the two-term linear ODE with
Mittag-Leffler solution, the two-term nonlinear ODE, the diffusion-wave
problems with smooth manufactured and forced solutions, and the forced
two-term subdiffusion problem.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

import numpy as np

from .specfun import gamma, mittag_leffler

if TYPE_CHECKING:  # each factory imports the type it builds, so no solver loads with this module
    from .fode import MultiTermProblem
    from .sem import SpectralMesh
    from .tfpde import SubdiffusionProblem, WaveProblem

__all__ = [
    "two_term_ml_problem",
    "two_term_ml_exact",
    "nonlinear_cubic_problem",
    "three_zone_mesh",
    "two_zone_unit_mesh",
    "wave_smooth_problem",
    "wave_smooth_exact",
    "wave_forced_problem",
    "subdiffusion_forced_problem",
]


def two_term_ml_problem(alpha: float, T: float = 1.0) -> MultiTermProblem:
    """Two-term linear ODE D^{2a} y + 3/2 D^a y = -y/2, y(0) = 1, whose
    solution is 2 E_a(-t^a/2) - E_a(-t^a).  Requires alpha <= 1/2."""
    if not 0 < alpha <= 0.5:
        raise ValueError("alpha in (0, 1/2] required")
    from .fode import MultiTermProblem

    return MultiTermProblem(
        nu=(1.0, 1.5),
        alphas=(2.0 * alpha, alpha),
        rhs=lambda t, y: -0.5 * y,
        y0=1.0,
        T=T,
        lam=-0.5,
    )


def two_term_ml_exact(alpha: float):
    """Exact solution of ``two_term_ml_problem``; ``Y(t)`` takes a float or
    an array of times and returns the same shape (exactly 1.0 at t = 0)."""

    def Y(t):
        t = np.asarray(t, dtype=float)
        # Python's scalar pow, not numpy's: numpy's SIMD power can differ in
        # the last bit, which would move Y off its point-by-point values
        z = np.array([tk**alpha for tk in t.ravel().tolist()])
        # one series sum for both arguments, passed as a tuple so the call
        # stays hashable for perfbench's per-argument call counting
        e = mittag_leffler(alpha, tuple(np.concatenate((-z / 2.0, -z)).tolist()))
        y = 2.0 * e[: z.size] - e[z.size :]
        return float(y[0]) if t.ndim == 0 else y.reshape(t.shape)

    return Y


def nonlinear_cubic_problem(alpha1: float, alpha2: float, T: float = 10.0) -> MultiTermProblem:
    """Two-term nonlinear ODE D^{a1} y + D^{a2} y = y (1 - y^2) + cos t,
    y(0) = 1/2.  No closed-form solution; reference runs use the trapezoidal
    or L1 schemes at a fine step."""
    from .fode import MultiTermProblem

    return MultiTermProblem(
        nu=(1.0, 1.0),
        alphas=(alpha1, alpha2),
        rhs=lambda t, y: y * (1.0 - y * y) + math.cos(t),
        y0=0.5,
        T=T,
    )


def three_zone_mesh() -> SpectralMesh:
    """(-1, 1) split at +-1/2 with degrees (24, 32, 24)."""
    from .sem import SpectralMesh

    return SpectralMesh([-1.0, -0.5, 0.5, 1.0], (24, 32, 24))


def two_zone_unit_mesh(degree: int = 16) -> SpectralMesh:
    """(0, 1) split at 1/2, equal degrees."""
    from .sem import SpectralMesh

    return SpectralMesh([0.0, 0.5, 1.0], (degree, degree))


def wave_smooth_exact():
    """Exact solution of the smooth manufactured wave problem:
    U = (t^4 + t^3 + t^2 + t + 1) sin(2 pi x)."""

    def U(x, t):
        return (t**4 + t**3 + t**2 + t + 1.0) * np.sin(2.0 * np.pi * np.asarray(x))

    return U


def wave_smooth_problem(alpha: float, nu: float = 2.0, mesh: SpectralMesh | None = None) -> WaveProblem:
    """Diffusion-wave problem on (-1, 1) with the manufactured smooth solution
    U = (t^4 + t^3 + t^2 + t + 1) sin(2 pi x); the source is built for the
    given memory coefficient nu.

    The published convergence table for this solution corresponds to nu = 2
    (kept as the default so the study reproduces those numbers); any nu >= 0
    yields a consistent manufactured problem.
    """
    mesh = mesh if mesh is not None else three_zone_mesh()

    def source(x, t):
        x = np.asarray(x)
        poly = t**4 + t**3 + t**2 + t + 1.0
        dtt = 12.0 * t**2 + 6.0 * t + 2.0
        # the fractional term is 0 at t = 0; the guard keeps it so at
        # alpha = 1, where t^(1 - alpha) is 1 at t = 0
        frac = np.where(
            t > 0.0,
            gamma(5.0) / gamma(4.0 - alpha) * t ** (3.0 - alpha)
            + gamma(4.0) / gamma(3.0 - alpha) * t ** (2.0 - alpha)
            + gamma(3.0) / gamma(2.0 - alpha) * t ** (1.0 - alpha),
            0.0,
        )
        return (dtt + nu * frac + 4.0 * math.pi**2 * poly) * np.sin(2.0 * np.pi * x)

    from .tfpde import WaveProblem

    s2pi = lambda x: np.sin(2.0 * np.pi * np.asarray(x))
    return WaveProblem(
        nu=nu, mu=1.0, source=source, phi0=s2pi, psi0=s2pi, alpha=alpha, T=1.0, mesh=mesh
    )


def wave_forced_problem(alpha: float = 0.5, mesh: SpectralMesh | None = None) -> WaveProblem:
    """Diffusion-wave problem on (-1, 1) with zero initial data and the
    smooth forcing f = exp(-t) sin(pi x).  The solution expands in t with the
    exponents 2 + k (1 - alpha) plus integer powers (2 + j + k (1 - alpha),
    j, k >= 0); only at alpha = 1/2 are these sigma_k = (3 + k) alpha."""
    mesh = mesh if mesh is not None else three_zone_mesh()
    from .tfpde import WaveProblem

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return WaveProblem(
        nu=1.0,
        mu=1.0,
        source=lambda x, t: np.exp(-t) * np.sin(np.pi * np.asarray(x)),
        phi0=zero,
        psi0=zero,
        alpha=alpha,
        T=1.0,
        mesh=mesh,
    )


def subdiffusion_forced_problem(mesh: SpectralMesh | None = None) -> SubdiffusionProblem:
    """Two-term subdiffusion problem on (0, 1): D^{3/4} U + D^{1/2} U =
    U_xx + exp(-t) sin(pi x), zero data; solution exponents (2 + k)/4."""
    mesh = mesh if mesh is not None else two_zone_unit_mesh(16)
    from .tfpde import SubdiffusionProblem

    zero = lambda x: np.zeros_like(np.asarray(x, dtype=float))
    return SubdiffusionProblem(
        nu=(1.0, 1.0),
        alphas=(0.75, 0.5),
        mu=1.0,
        source=lambda x, t: np.exp(-t) * np.sin(np.pi * np.asarray(x)),
        phi0=zero,
        T=1.0,
        mesh=mesh,
    )
