"""Oracles for the shared memory core: every stepper is exact, to rounding,
on solutions spanned by its corrected powers, and loses that exactness
without the corrections."""

import math

import numpy as np
import pytest

from fracstep.corrections import CorrectionSet
from fracstep.fode import MultiTermProblem, SolverConfig, solve_corrected_wsgl
from fracstep.glweights import l1_weights, rl_deriv_power
from fracstep.memory import Term, diagonal, history, startup_matrix
from fracstep.problems import two_zone_unit_mesh
from fracstep.sem import SpectralMesh
from fracstep.tfpde import SubdiffusionProblem, WaveProblem, solve_subdiffusion, solve_wave

TAUS = (2.0**-5, 2.0**-6, 2.0**-7)


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


def _fode_power_span_error(tau, m):
    nu, alphas, powers = (1.0, 1.5), (0.6, 0.3), (0.6, 0.9, 1.2)

    def exact(t):
        return 1.0 + sum(t**s for s in powers)

    def rhs(t, y):
        return sum(v * rl_deriv_power(a, s, t) for v, a in zip(nu, alphas) for s in powers)

    problem = MultiTermProblem(nu, alphas, rhs, 1.0, 1.0)
    config = SolverConfig(tau=tau, corrections=CorrectionSet(powers[:m]))
    path = solve_corrected_wsgl(problem, config)
    return float(np.max(np.abs(path.values - [exact(t) for t in path.times])))


@pytest.mark.parametrize("tau", TAUS)
def test_fode_exact_on_power_span(tau):
    assert _fode_power_span_error(tau, 3) <= 1e-13
    assert _fode_power_span_error(tau, 0) >= 1e-3


def _subdiffusion_power_span_error(tau, m):
    a1, a2, nu, mu = 0.75, 0.5, 1.0, 1.0
    powers = (0.75, 1.0)

    def time_part(t):
        return sum(t**s for s in powers)

    def source(x, t):
        frac = sum(rl_deriv_power(a1, s, t) + nu * rl_deriv_power(a2, s, t) for s in powers)
        x = np.asarray(x)
        return frac * x * (1.0 - x) + 2.0 * mu * time_part(t)

    mesh = two_zone_unit_mesh(8)
    problem = SubdiffusionProblem(a1, a2, nu, mu, source, _zero, 1.0, mesh)
    hist = solve_subdiffusion(problem, tau, powers, m, m)
    x = mesh.nodes
    exact = np.array([time_part(t) * x * (1.0 - x) for t in hist.times])
    return float(np.max(np.abs(hist.u - exact)))


@pytest.mark.parametrize("tau", TAUS)
def test_subdiffusion_exact_on_power_span(tau):
    assert _subdiffusion_power_span_error(tau, 2) <= 1e-13
    assert _subdiffusion_power_span_error(tau, 0) >= 1e-4


def _wave_power_span_error(tau, counts):
    alpha, nu, mu = 0.5, 1.0, 1.0

    def time_part(t):
        return t**2 + t**2.5

    def source(x, t):
        dtt = 2.0 + 2.5 * 1.5 * t**0.5
        frac = 2.0 * rl_deriv_power(alpha, 1.0, t) + 2.5 * rl_deriv_power(alpha, 1.5, t)
        return (dtt + nu * frac) * (1.0 - np.asarray(x) ** 2) + 2.0 * mu * time_part(t)

    mesh = SpectralMesh([-1.0, 0.0, 1.0], (4, 4))
    problem = WaveProblem(nu, mu, source, _zero, _zero, alpha, 1.0, mesh)
    hist = solve_wave(problem, tau, (2.0, 2.5, 3.0), *counts)
    x = mesh.nodes
    exact = np.array([time_part(t) * (1.0 - x**2) for t in hist.times])
    return float(np.max(np.abs(hist.u - exact)))


@pytest.mark.parametrize("counts", [(2, 2, 2), (2, 3, 2)])
@pytest.mark.parametrize("tau", TAUS)
def test_wave_exact_on_power_span(tau, counts):
    assert _wave_power_span_error(tau, counts) <= 1e-12
    assert _wave_power_span_error(tau, (0, 0, 0)) >= 1e-5


def test_l1_value_form_matches_difference_form():
    # sum_k c_{n-k} (x^k - x^0) = sum_k b_{n-k-1} (x^{k+1} - x^k), with b the
    # L1 kernel straight from its formula
    rng = np.random.default_rng(7)
    alpha, tau, n_t = 0.35, 0.01, 40
    k = np.arange(n_t, dtype=float)
    b = tau ** (-alpha) / math.gamma(2.0 - alpha) * ((k + 1.0) ** (1.0 - alpha) - k ** (1.0 - alpha))
    c = l1_weights(alpha, n_t, tau)
    assert c[0] == b[0]
    for x in (rng.standard_normal(n_t + 1), rng.standard_normal((n_t + 1, 3))):
        xhat = x - x[0]
        for n in (1, 2, 17, n_t):
            value = c[0] * xhat[n] + history([Term(1.0, c)], xhat, n)
            difference = np.diff(x[: n + 1], axis=0).T @ b[:n][::-1]
            np.testing.assert_allclose(value, difference, rtol=1e-12, atol=1e-12 * tau ** (-alpha))


def test_startup_matrix_and_history_are_one_operator():
    # the startup coefficients, the diagonal and the history all evaluate
    # the same scale * (Toeplitz convolution + starting weights)
    rng = np.random.default_rng(3)
    m, n_t = 3, 12
    terms = [
        Term(2.0, rng.standard_normal(n_t + 1), rng.standard_normal((n_t + 1, 2))),
        Term(0.5, rng.standard_normal(n_t + 1)),
    ]
    x = np.concatenate([[0.0], rng.standard_normal(n_t)])
    dense = np.zeros((n_t + 1, n_t + 1))
    for t in terms:
        for n in range(n_t + 1):
            dense[n, : n + 1] += t.scale * t.kernel[n::-1]
            if t.table is not None:
                dense[n, 1:3] += t.scale * t.table[n]
    for n in range(1, n_t + 1):
        assert diagonal(terms) * x[n] + history(terms, x, n) == pytest.approx(dense[n] @ x, rel=1e-13)
    np.testing.assert_allclose(startup_matrix(terms, m), dense[: m + 1, 1 : m + 1], rtol=1e-15)
    assert startup_matrix(terms, m).shape == (m + 1, m)
