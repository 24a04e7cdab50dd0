import dataclasses
import math

import numpy as np
import pytest

from fracstep import tfpde
from fracstep.corrections import (
    CorrectionSet,
    d1_u_weight_table,
    d1_v_weight_table,
    starting_weight_table,
)
from fracstep.glweights import l1_weights, wsgl_weights
from fracstep.memory import Term
from fracstep.problems import (
    subdiffusion_forced_problem,
    three_zone_mesh,
    two_zone_unit_mesh,
    wave_forced_problem,
    wave_smooth_exact,
    wave_smooth_problem,
)
from fracstep.sem import SpectralMesh, h1_projection
from fracstep.specfun import gamma
from fracstep.tfpde import (
    FieldHistory,
    SubdiffusionProblem,
    WaveProblem,
    l2_error,
    solve_subdiffusion,
    solve_subdiffusion_l1_baseline,
    solve_wave,
    solve_wave_l1_baseline,
)
import oracles


def _zero(x):
    return np.zeros_like(np.asarray(x, dtype=float))


@pytest.fixture(scope="module")
def small_mesh():
    return SpectralMesh([-1.0, 0.0, 1.0], (12, 12))


@pytest.fixture(scope="module")
def unit_mesh():
    return two_zone_unit_mesh(12)


@pytest.mark.parametrize(
    "field, match",
    [("nu", r"nu = nan"), ("mu", r"mu = nan"), ("T", r"T = nan"), ("alpha", r"alpha = nan")],
)
def test_wave_problem_rejects_nan_parameters_by_name(small_mesh, field, match):
    prob = WaveProblem(1.0, 1.0, lambda x, t: _zero(x), _zero, _zero, 0.5, 1.0, small_mesh)
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(prob, **{field: math.nan})


@pytest.mark.parametrize(
    "field, match",
    [("nu", r"nu = nan"), ("mu", r"mu = nan"), ("T", r"T = inf"), ("alpha2", r"alpha2 = nan")],
)
def test_subdiffusion_problem_rejects_nan_parameters_by_name(unit_mesh, field, match):
    prob = SubdiffusionProblem(0.75, 0.5, 1.0, 1.0, lambda x, t: _zero(x), _zero, 1.0, unit_mesh)
    value = math.inf if field == "T" else math.nan
    with pytest.raises(ValueError, match=match):
        dataclasses.replace(prob, **{field: value})


def test_zero_wave_history(small_mesh):
    prob = WaveProblem(1.0, 1.0, lambda x, t: _zero(x), _zero, _zero, 0.5, 1.0, small_mesh)
    hist = solve_wave(prob, 2.0**-4, (2.0, 3.0), 1, 1, 2)
    assert np.all(hist.u == 0.0)
    assert np.all(hist.v == 0.0)
    hist_l1 = solve_wave_l1_baseline(prob, 2.0**-4)
    assert np.all(hist_l1.u == 0.0)


def test_zero_subdiffusion_history(unit_mesh):
    prob = SubdiffusionProblem(0.75, 0.5, 1.0, 1.0, lambda x, t: _zero(x), _zero, 1.0, unit_mesh)
    hist = solve_subdiffusion(prob, 2.0**-4, (0.75, 1.0), 2, 2)
    assert np.all(hist.u == 0.0)
    assert np.all(solve_subdiffusion_l1_baseline(prob, 2.0**-4).u == 0.0)


def _nan_after(t0):
    def source(x, t):
        x = np.asarray(x, dtype=float)
        return np.where(t >= t0, np.nan, np.sin(np.pi * x))

    return source


def test_nan_source_names_solver_step_and_time(small_mesh, unit_mesh):
    # step 16 starts a run of the field marches; step 48 lies inside the
    # run 32..63, which one product solves whole
    for tau, t0, where in ((2.0**-5, 0.5, r"step 16, t = 0\.5"), (2.0**-6, 0.75, r"step 48, t = 0\.75")):
        sub = SubdiffusionProblem(0.75, 0.5, 1.0, 1.0, _nan_after(t0), _zero, 1.0, unit_mesh)
        with pytest.raises(ValueError, match="solve_subdiffusion: " + where):
            solve_subdiffusion(sub, tau, (0.75, 1.0), 2, 2)
        with pytest.raises(ValueError, match="solve_subdiffusion_l1_baseline: " + where):
            solve_subdiffusion_l1_baseline(sub, tau)
        wave = WaveProblem(1.0, 1.0, _nan_after(t0), _zero, _zero, 0.5, 1.0, small_mesh)
        for counts in ((0, 0, 0), (2, 2, 2), (2, 3, 2)):
            with pytest.raises(ValueError, match="solve_wave: " + where):
                solve_wave(wave, tau, (2.0, 2.5, 3.0), *counts)
        with pytest.raises(ValueError, match="solve_wave_l1_baseline: " + where):
            solve_wave_l1_baseline(wave, tau)
    # a bad source inside the coupled startup block names the block's steps
    tau = 2.0**-5
    nan = lambda x, t: np.full_like(np.asarray(x, dtype=float), np.nan)
    startup = r"steps 1\.\.2, t <= 0\.0625"
    with pytest.raises(ValueError, match="solve_subdiffusion: " + startup):
        solve_subdiffusion(dataclasses.replace(sub, source=nan), tau, (0.75, 1.0), 2, 2)
    with pytest.raises(ValueError, match="solve_wave: " + startup):
        solve_wave(dataclasses.replace(wave, source=nan), tau, (2.0, 2.5), 2, 2, 2)


def test_indefinite_step_matrix_names_solver(small_mesh, unit_mesh, monkeypatch):
    # a stiffness spectrum of the wrong sign makes every step matrix
    # indefinite: the march rejects it before the first step
    for mesh in (small_mesh, unit_mesh):
        forms = mesh.forms()
        Phi, lam = forms.modes
        monkeypatch.setitem(forms.__dict__, "modes", (Phi, -lam))
    tau = 2.0**-5
    what = r": step matrix is not positive definite"
    source = lambda x, t: _zero(x)
    sub = SubdiffusionProblem(0.75, 0.5, 1.0, 1.0, source, _zero, 1.0, unit_mesh)
    with pytest.raises(ValueError, match="solve_subdiffusion" + what):
        solve_subdiffusion(sub, tau)
    with pytest.raises(ValueError, match="solve_subdiffusion_l1_baseline" + what):
        solve_subdiffusion_l1_baseline(sub, tau)
    wave = WaveProblem(1.0, 1.0, source, _zero, _zero, 0.5, 1.0, small_mesh)
    with pytest.raises(ValueError, match="solve_wave" + what):
        solve_wave(wave, tau)
    with pytest.raises(ValueError, match="solve_wave_l1_baseline" + what):
        solve_wave_l1_baseline(wave, tau)


def test_boundary_dofs_exactly_zero():
    prob = wave_smooth_problem(0.5)
    hist = solve_wave(prob, 2.0**-4, (2.0, 3.0), 0, 0, 2)
    assert np.all(hist.u[:, [0, -1]] == 0.0)
    assert np.all(hist.v[:, [0, -1]] == 0.0)
    sub = subdiffusion_forced_problem()
    hs = solve_subdiffusion(sub, 2.0**-4, (0.75, 1.0), 1, 1)
    assert np.all(hs.u[:, [0, -1]] == 0.0)


def test_wave_smooth_benchmark_errors():
    # frozen benchmark values of the manufactured smooth study (nu = 2)
    prob = wave_smooth_problem(0.5)
    U = wave_smooth_exact()
    assert l2_error(solve_wave(prob, 2.0**-5), U) == pytest.approx(6.1569e-4, rel=2e-3)
    hist = solve_wave(prob, 2.0**-5, (2.0, 3.0), 0, 0, 2)
    assert l2_error(hist, U) == pytest.approx(4.1566e-4, rel=2e-3)


def test_wave_second_order_with_two_corrections():
    prob = wave_smooth_problem(0.5)
    U = wave_smooth_exact()
    errs = [l2_error(solve_wave(prob, 2.0**-p, (2.0, 3.0), 0, 0, 2), U) for p in (5, 6)]
    assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)


def test_wave_order_laws_on_smooth_solution():
    # without memory-term corrections the observed endpoint order degrades
    # toward 2 - alpha; one correction restores second order for alpha < 1/2
    U = wave_smooth_exact()
    prob = wave_smooth_problem(0.9)
    errs = [l2_error(solve_wave(prob, 2.0**-p), U) for p in (8, 9)]
    assert math.log2(errs[0] / errs[1]) == pytest.approx(1.11, abs=0.1)
    prob = wave_smooth_problem(0.2)
    errs = [l2_error(solve_wave(prob, 2.0**-p, (2.0,), 0, 0, 1), U) for p in (6, 7)]
    assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.1)


def test_wave_scheme_equation_residual():
    # the stored history satisfies the discrete scheme equations to solver
    # accuracy: V-equation and trapezoid U-update at every step
    prob = wave_forced_problem(0.5)
    tau = 2.0**-4
    sigma = CorrectionSet(tuple((3 + k) * 0.5 for k in range(1, 4)))
    m1 = m2 = m3 = 2
    hist = solve_wave(prob, tau, sigma, m1, m2, m3)
    mesh = prob.mesh
    forms = mesh.forms()
    I = mesh.interior
    Md = forms.mass0()
    S = forms.stiffness0()
    n_t = hist.n_steps
    u = hist.u[:, I]
    v = hist.v[:, I]
    alpha, nu, mu = prob.alpha, prob.nu, prob.mu
    g = wsgl_weights(alpha, n_t + 1)
    sc = tau**-alpha
    Wv3 = starting_weight_table(alpha, sigma.truncated(m3).shifted(-1.0), n_t + 1)
    Wu1 = d1_u_weight_table(sigma, m1, n_t)
    Wv2 = d1_v_weight_table(sigma, m2, n_t)
    x = mesh.nodes[I]
    fr = np.array([prob.source(x, n * tau) for n in range(n_t + 1)])
    vhat = v - v[0]

    def frac(level):
        acc = sc * (vhat[: level + 1].T @ g[level::-1])
        acc += sc * (vhat[1 : m3 + 1].T @ Wv3[level])
        return acc

    scale = max(1.0, float(np.max(np.abs(v))))
    for n in range(n_t):
        r1 = (
            Md * (v[n + 1] - v[n]) / tau
            + Md * sum(Wv2[n, r - 1] * (v[r] - v[0]) for r in range(1, m2 + 1)) / tau
            + 0.5 * nu * Md * (frac(n + 1) + frac(n))
            + 0.5 * mu * (S @ (u[n + 1] + u[n]))
            - Md * 0.5 * (fr[n] + fr[n + 1])
        )
        ucorr = sum(Wu1[n, r - 1] * (u[r] - u[0] - r * tau * v[0]) for r in range(1, m1 + 1))
        r2 = u[n + 1] - u[n] - (tau / 2.0) * (v[n + 1] + v[n]) + ucorr
        assert np.max(np.abs(r1)) <= 1e-10 * scale * max(1.0, sc)
        assert np.max(np.abs(r2)) <= 1e-10 * scale


def test_wave_energy_boundedness(small_mesh):
    # homogeneous problem: discrete energy stays within a fixed multiple of
    # its startup value
    s2 = lambda x: np.sin(2.0 * np.pi * np.asarray(x, dtype=float))
    for alpha in (0.3, 0.7):
        for p in (4, 6):
            prob = WaveProblem(1.0, 1.0, lambda x, t: _zero(x), s2, s2, alpha, 1.0, small_mesh)
            hist = solve_wave(prob, 2.0**-p)
            forms = small_mesh.forms()
            I = small_mesh.interior
            Md = forms.mass0()
            S = forms.stiffness0()
            energy = [
                float(np.dot(Md * hist.v[n, I], hist.v[n, I]))
                + float(hist.u[n, I] @ S @ hist.u[n, I])
                for n in range(hist.n_steps + 1)
            ]
            assert max(energy) <= 10.0 * energy[0]


def test_wave_precondition_errors(small_mesh):
    prob = wave_smooth_problem(0.5)
    with pytest.raises(ValueError):
        solve_wave(prob, 2.0**-4, (0.5, 2.0), 0, 0, 2)  # sigma <= 1
    with pytest.raises(ValueError):
        solve_wave(prob, 2.0**-4, (2.0, 3.5, 4.5), 0, 0, 3)  # sigma_m3 > 4
    with pytest.raises(ValueError):
        solve_wave(prob, 2.0**-4, (2.0, 3.1), 2, 0, 0)  # sigma_m1 > 3
    with pytest.raises(ValueError):
        solve_wave(prob, 0.3, ())  # tau does not divide T


def test_wave_v_corrections_need_sigma_at_least_two():
    # the V-difference rows use exponents sigma_r - 1, and row 0 holds
    # 0^(sigma_r - 2): sigma_r < 2 must fail before any inf reaches a solve
    with pytest.raises(ValueError, match="sigma_r >= 2"):
        solve_wave(wave_forced_problem(0.5), 2**-4, (1.5, 2.0), 2, 2, 2)


def test_wave_l1_baseline_exact_for_linear_time():
    mesh = SpectralMesh([-1.0, 0.0, 1.0], (16, 16))
    spi = lambda x: np.sin(np.pi * np.asarray(x, dtype=float))

    def source(x, t):
        # U = (1 + t) sin(pi x): Utt = 0, fractional term of V-V0 vanishes
        return math.pi**2 * (1.0 + t) * spi(x)

    prob = WaveProblem(1.0, 1.0, source, spi, spi, 0.5, 1.0, mesh)
    hist = solve_wave_l1_baseline(prob, 2.0**-4)
    err = l2_error(hist, lambda x, t: (1.0 + t) * np.sin(np.pi * x))
    assert err <= 1e-10


def test_subdiffusion_l1_baseline_exact_for_linear_time():
    mesh = two_zone_unit_mesh(16)
    spi = lambda x: np.sin(np.pi * np.asarray(x, dtype=float))
    a1, a2 = 0.75, 0.5

    def source(x, t):
        frac = t ** (1.0 - a1) / gamma(2.0 - a1) + t ** (1.0 - a2) / gamma(2.0 - a2)
        return np.where(t == 0.0, 0.0, (frac + math.pi**2 * t) * spi(x))

    prob = SubdiffusionProblem(a1, a2, 1.0, 1.0, source, _zero, 1.0, mesh)
    hist = solve_subdiffusion_l1_baseline(prob, 2.0**-4)
    err = l2_error(hist, lambda x, t: t * np.sin(np.pi * x))
    assert err <= 1e-10


def test_subdiffusion_benchmark_value():
    # frozen published value of the forced two-term study: m = 3, tau = 2^-10,
    # against the same scheme at 2^-13
    prob = subdiffusion_forced_problem()
    sig = tuple((2 + k) / 4 for k in range(1, 5))
    ref = solve_subdiffusion(prob, 2.0**-13, sig, 3, 3)
    hist = solve_subdiffusion(prob, 2.0**-10, sig, 3, 3)
    err = l2_error(hist, ref, at="average")
    assert err == pytest.approx(1.2301e-7, rel=0.3)
    errs = [
        l2_error(solve_subdiffusion(prob, 2.0**-p, sig, 3, 3), ref, at="average")
        for p in (9, 10)
    ]
    assert math.log2(errs[0] / errs[1]) == pytest.approx(2.8, abs=0.3)


def test_subdiffusion_scheme_equation_residual():
    prob = subdiffusion_forced_problem()
    tau = 2.0**-5
    sig = CorrectionSet((0.75, 1.0))
    hist = solve_subdiffusion(prob, tau, sig, 2, 2)
    mesh = prob.mesh
    forms = mesh.forms()
    I = mesh.interior
    Md = forms.mass0()
    S = forms.stiffness0()
    n_t = hist.n_steps
    uh = hist.u[:, I] - hist.u[0, I]
    g1 = wsgl_weights(0.75, n_t)
    g2 = wsgl_weights(0.5, n_t)
    W1 = starting_weight_table(0.75, sig, n_t)
    W2 = starting_weight_table(0.5, sig, n_t)
    s1, s2 = tau**-0.75, tau**-0.5
    x = mesh.nodes[I]
    scale = max(1.0, float(np.max(np.abs(hist.u))) * max(s1, s2))
    for n in range(1, n_t + 1):
        acc = s1 * (uh[: n + 1].T @ g1[n::-1]) + s2 * (uh[: n + 1].T @ g2[n::-1])
        acc += s1 * (uh[1:3].T @ W1[n]) + s2 * (uh[1:3].T @ W2[n])
        resid = Md * acc + S @ hist.u[n, I] - Md * prob.source(x, n * tau)
        assert np.max(np.abs(resid)) <= 1e-10 * scale


def _refined(residual, n_unknowns, steps=6):
    """Solution of the affine system residual(X) = 0 (X one column of
    unknowns): a float64 solve with the matrix read off the residual, then
    ``steps`` refinements with the residual taken in long double."""
    A = residual(np.eye(n_unknowns), np.float64, homogeneous=True)
    X = np.linalg.solve(A, -residual(np.zeros((n_unknowns, 1)), np.float64)).astype(np.longdouble)
    for _ in range(steps):
        X -= np.linalg.solve(A, residual(X, np.longdouble).astype(np.float64))
    return X[:, 0]


def _as(dtype):
    return lambda a: np.asarray(a, dtype=float).astype(dtype)


def _rel(x, ref):
    return float(np.max(np.abs(x - ref)) / np.max(np.abs(ref)))


@pytest.mark.parametrize("tau", [2.0**-5, 2.0**-9])
@pytest.mark.parametrize("m", [3, 4])
@pytest.mark.parametrize("make", [wave_forced_problem, wave_smooth_problem])
def test_wave_startup_block_matches_refined_solution(make, m, tau):
    # the full 2md block of steps 0..m-1, written from the scheme equations as
    # in test_wave_scheme_equation_residual and solved with long-double
    # residual refinement, against the startup levels of the march
    prob = make(0.5)
    sigma = CorrectionSet((2.0, 2.5, 3.0, 3.5))
    m1, m2, m3 = min(m, 2), m, m
    mesh = prob.mesh
    I = mesh.interior
    Md, S = mesh.forms().mass0(), mesh.forms().stiffness0()
    d = len(I)
    n_t = round(1.0 / tau)
    alpha, nu, mu = prob.alpha, prob.nu, prob.mu
    g = wsgl_weights(alpha, n_t + 1)
    sc = tau ** (-alpha)
    Wv3 = starting_weight_table(alpha, sigma.truncated(m3).shifted(-1.0), n_t + 1)
    Wu1 = d1_u_weight_table(sigma, m1, n_t)
    Wv2 = d1_v_weight_table(sigma, m2, n_t)
    x = mesh.nodes[I]
    fr = prob.source(x[None, :], (np.arange(m + 1) * tau)[:, None]) * np.ones((m + 1, d))
    u0 = h1_projection(prob.phi0, mesh)[I]
    v0 = h1_projection(prob.psi0, mesh)[I]

    def residual(X, dtype, homogeneous=False):
        c = _as(dtype)
        B = X.shape[1]
        data = 0.0 if homogeneous else 1.0  # the homogeneous system has zero data
        level0 = lambda a: np.broadcast_to(c(data * a)[None, :, None], (1, d, B))
        U = np.concatenate([level0(u0), X[: m * d].reshape(m, d, B)])
        V = np.concatenate([level0(v0), X[m * d :].reshape(m, d, B)])
        f = c(data * fr)[:, :, None]
        Md_, S_, tau_ = c(Md)[:, None], c(S), c(tau)
        vh = V - V[0]
        dot = lambda w, levels: np.tensordot(c(w), levels, 1)
        frac = [c(sc) * (dot(g[k::-1], vh[: k + 1]) + dot(Wv3[k, :m3], vh[1 : m3 + 1])) for k in range(m + 1)]
        t_r = c(np.arange(1, m1 + 1) * tau)[:, None, None]
        r1, r2 = [], []
        for n in range(m):
            r1.append(
                Md_ * (V[n + 1] - V[n]) / tau_
                + Md_ * dot(Wv2[n, :m2], vh[1 : m2 + 1]) / tau_
                + c(0.5 * nu) * Md_ * (frac[n + 1] + frac[n])
                + c(0.5 * mu) * np.einsum("ij,jb->ib", S_, U[n + 1] + U[n])
                - Md_ * (f[n] + f[n + 1]) / 2
            )
            ucorr = dot(Wu1[n, :m1], U[1 : m1 + 1] - U[0] - t_r * V[0])
            r2.append(U[n + 1] - U[n] - tau_ / 2 * (V[n + 1] + V[n]) + ucorr)
        return np.concatenate([np.stack(r1), np.stack(r2)]).reshape(2 * m * d, B)

    U, V = _refined(residual, 2 * m * d).reshape(2, m, d)
    hist = solve_wave(prob, tau, sigma, m1, m2, m3)
    assert _rel(hist.u[1 : m + 1, I], U) <= 1e-13
    assert _rel(hist.v[1 : m + 1, I], V) <= 1e-13


@pytest.mark.parametrize("tau", [2.0**-5, 2.0**-9])
@pytest.mark.parametrize("m", [3, 4])
def test_subdiffusion_startup_block_matches_refined_solution(m, tau):
    prob = subdiffusion_forced_problem()
    sigma = CorrectionSet((0.75, 1.0, 1.25, 1.5))
    mesh = prob.mesh
    I = mesh.interior
    Md, S = mesh.forms().mass0(), mesh.forms().stiffness0()
    d = len(I)
    n_t = round(1.0 / tau)
    terms = [
        (scale * tau ** (-a), wsgl_weights(a, n_t), starting_weight_table(a, sigma.truncated(m), n_t))
        for scale, a in ((1.0, prob.alpha1), (prob.nu, prob.alpha2))
    ]
    x = mesh.nodes[I]
    fr = prob.source(x[None, :], (np.arange(m + 1) * tau)[:, None]) * np.ones((m + 1, d))
    u0 = h1_projection(prob.phi0, mesh)[I]

    def residual(X, dtype, homogeneous=False):
        # steps n = 1..m on uh = U - U(0), uh^0 = 0
        c = _as(dtype)
        B = X.shape[1]
        data = 0.0 if homogeneous else 1.0
        uh = np.concatenate([np.zeros((1, d, B), dtype), X.reshape(m, d, B)])
        dot = lambda w, levels: np.tensordot(c(w), levels, 1)
        rows = []
        for n in range(1, m + 1):
            acc = sum(c(s) * (dot(g[n::-1], uh[: n + 1]) + dot(W[n], uh[1 : m + 1])) for s, g, W in terms)
            stiff = np.einsum("ij,jb->ib", c(S), c(prob.mu) * (uh[n] + c(data * u0)[:, None]))
            rows.append(c(Md)[:, None] * (acc - c(data * fr[n])[:, None]) + stiff)
        return np.stack(rows).reshape(m * d, B)

    Uh = _refined(residual, m * d).reshape(m, d)
    hist = solve_subdiffusion(prob, tau, sigma, m, m)
    assert _rel(hist.u[1 : m + 1, I] - u0, Uh) <= 1e-13


def test_singular_wave_startup_block_raises(small_mesh, monkeypatch):
    # a U-correction that cancels the first trapezoid row's u^1 coefficient
    table = tfpde.d1_u_weight_table

    def cancelling(sigma, m1, n_t):
        W = np.array(table(sigma, m1, n_t))
        W[0] = 0.0
        W[0, 0] = -1.0
        return W

    monkeypatch.setattr(tfpde, "d1_u_weight_table", cancelling)
    wave = WaveProblem(1.0, 1.0, lambda x, t: _zero(x), _zero, _zero, 0.5, 1.0, small_mesh)
    with pytest.raises(RuntimeError, match="wave startup block is singular"):
        solve_wave(wave, 2.0**-5, (2.0, 2.5), 2, 2, 2)


def _each_field_solve(small_mesh, unit_mesh, source):
    tau = 2.0**-5
    wave = WaveProblem(1.0, 1.0, source, _zero, _zero, 0.5, 1.0, small_mesh)
    sub = SubdiffusionProblem(0.75, 0.5, 1.0, 1.0, source, _zero, 1.0, unit_mesh)
    return [
        ("solve_wave", lambda: solve_wave(wave, tau, (2.0, 2.5), 2, 2, 2)),
        ("solve_wave_l1_baseline", lambda: solve_wave_l1_baseline(wave, tau)),
        ("solve_subdiffusion", lambda: solve_subdiffusion(sub, tau, (0.75, 1.0), 2, 2)),
        ("solve_subdiffusion_l1_baseline", lambda: solve_subdiffusion_l1_baseline(sub, tau)),
    ]


def test_source_called_once_per_solve(small_mesh, unit_mesh):
    calls = []

    def source(x, t):
        calls.append((np.shape(x), np.shape(t)))
        return np.exp(-t) * np.sin(np.pi * x)

    for name, solve in _each_field_solve(small_mesh, unit_mesh, source):
        calls.clear()
        solve()
        d = len((small_mesh if "wave" in name else unit_mesh).interior)
        assert calls == [((1, d), (33, 1))], name


def test_scalar_only_source_names_solver_and_contract(small_mesh, unit_mesh):
    sources = [
        lambda x, t: np.sin(np.pi * x) if t > 0.0 else _zero(x),  # truth value of an array
        lambda x, t: math.exp(-t) * np.sin(np.pi * x),  # a scalar-only function of t
    ]
    for source in sources:
        for name, solve in _each_field_solve(small_mesh, unit_mesh, source):
            what = r": the source failed on an array t; .*must broadcast"
            with pytest.raises(ValueError, match=name + what):
                solve()


def test_source_of_wrong_shape_names_solver_and_contract(small_mesh, unit_mesh):
    source = lambda x, t: np.ones(3)
    what = r": the source returned shape \(3,\), which does not broadcast to \(levels, dofs\)"
    for name, solve in _each_field_solve(small_mesh, unit_mesh, source):
        with pytest.raises(ValueError, match=name + what):
            solve()


def test_l2_error_modes_and_projected_exact(small_mesh):
    U = lambda x, t: (1.0 + t) * np.sin(np.pi * np.asarray(x))
    # projected exact data measured against itself: spatial error only
    proj = np.array([h1_projection(lambda x: U(x, t), small_mesh) for t in (0.0, 0.5, 1.0)])
    hist = FieldHistory(small_mesh, 0.5, proj)
    assert l2_error(hist, U) <= 1e-9
    zero_hist = FieldHistory(small_mesh, 0.5, np.zeros_like(proj))
    assert l2_error(zero_hist, lambda x, t: _zero(x)) == 0.0
    assert l2_error(zero_hist, zero_hist) == 0.0
    with pytest.raises(ValueError):
        l2_error(hist, FieldHistory(small_mesh, 0.3, proj))
    for at in ("bogus", 1):  # a step index is not a mode
        with pytest.raises(ValueError, match=f"unknown error mode {at!r}"):
            l2_error(hist, U, at=at)


@pytest.fixture(scope="module")
def three_zone():
    return three_zone_mesh()


@pytest.mark.parametrize("m", [0, 1, 2, 3])
@pytest.mark.parametrize("alpha", [0.4, 0.5, 0.6])
@pytest.mark.parametrize("make", [wave_forced_problem, wave_smooth_problem])
def test_wave_march_matches_physical_space_march(three_zone, make, alpha, m):
    # the modal march against the physical-space one, which solves each step
    # by a Cholesky-inverse mat-vec; V's bound is 4x the 1.25e-12 relative by
    # which a one-ulp change of each step's right-hand side moves V
    prob = make(alpha, mesh=three_zone)
    tau, sigma = 2.0**-7, (2.0, 2.5, 3.0)
    hist = solve_wave(prob, tau, sigma, m, m, m)
    u, v = oracles.wave_march(prob, tau, sigma, m, m, m)
    I = three_zone.interior
    assert _rel(hist.u[:, I], u) <= 1e-13
    assert _rel(hist.v[:, I], v) <= 5e-12


@pytest.mark.parametrize("alpha", [0.4, 0.5, 0.6])
@pytest.mark.parametrize("make", [wave_forced_problem, wave_smooth_problem])
def test_wave_l1_march_matches_physical_space_march(three_zone, make, alpha):
    prob = make(alpha, mesh=three_zone)
    hist = solve_wave_l1_baseline(prob, 2.0**-7)
    u, v = oracles.wave_l1_march(prob, 2.0**-7)
    I = three_zone.interior
    assert _rel(hist.u[:, I], u) <= 1e-13
    assert _rel(hist.v[:, I], v) <= 5e-12


@pytest.mark.parametrize("counts", [(0, 0, 0), (2, 3, 2), (3, 3, 3), "l1"])
@pytest.mark.parametrize("tau", [2.0**-9, 2.0**-11])
@pytest.mark.parametrize("alpha", [0.4, 0.5, 0.6])
def test_wave_run_solve_matches_march_by_level(alpha, tau, counts, monkeypatch):
    # each run of up to 32 levels solved as one product per mode, U's
    # trapezoid in the lags, against the same march one level at a time
    prob = wave_forced_problem(alpha)
    if counts == "l1":
        solve = lambda: solve_wave_l1_baseline(prob, tau)
    else:
        solve = lambda: solve_wave(prob, tau, (2.0, 2.5, 3.0, 3.5), *counts)
    runs = solve()
    monkeypatch.setattr(tfpde, "_march_wave", oracles.wave_march_by_level)
    levels = solve()
    assert _rel(runs.u, levels.u) <= 1e-13
    assert _rel(runs.v, levels.v) <= 1e-13


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision")
def test_wave_run_solve_matches_march_by_level_over_8192_levels(monkeypatch):
    # the run lags and inverses are formed in extended precision: rounded to
    # double, they perturb every run alike, and this march drifted 1.45e-13
    prob = wave_forced_problem(0.5)
    runs = solve_wave_l1_baseline(prob, 2.0**-13)
    monkeypatch.setattr(tfpde, "_march_wave", oracles.wave_march_by_level)
    levels = solve_wave_l1_baseline(prob, 2.0**-13)
    assert _rel(runs.u, levels.u) <= 1e-13
    assert _rel(runs.v, levels.v) <= 1e-13


@pytest.mark.parametrize("phi0", [_zero, lambda x: np.sin(np.pi * x)], ids=["zero", "sine"])
@pytest.mark.parametrize("m", [0, 1, 2, 3, "l1"])
def test_subdiffusion_march_matches_physical_space_march(m, phi0):
    prob = dataclasses.replace(subdiffusion_forced_problem(), phi0=phi0)
    tau, n_t = 2.0**-7, 128
    sigma = CorrectionSet((0.75, 1.0, 1.25))
    if m == "l1":
        hist = solve_subdiffusion_l1_baseline(prob, tau)
        terms = [Term(1.0, l1_weights(a, n_t, tau)) for a in (prob.alpha1, prob.alpha2)]
        m = 0
    else:
        hist = solve_subdiffusion(prob, tau, sigma, m, m)
        table = lambda a: starting_weight_table(a, sigma.truncated(m), n_t) if m else None
        terms = [
            Term(scale * tau ** (-a), wsgl_weights(a, n_t), table(a))
            for scale, a in ((1.0, prob.alpha1), (prob.nu, prob.alpha2))
        ]
    u = oracles.subdiffusion_march(prob, tau, terms, m)
    assert _rel(hist.u[:, prob.mesh.interior], u) <= 1e-13


def test_exact_reference_called_once_per_element():
    prob = wave_smooth_problem(0.5)
    hist = solve_wave(prob, 2.0**-6)
    U = wave_smooth_exact()
    calls = []

    def counting(x, t):
        calls.append((np.shape(x), np.shape(t)))
        return U(x, t)

    for at, steps in (("average", range(65)), ("final", [64])):
        calls.clear()
        err = l2_error(hist, counting, at=at)
        assert [t for _, t in calls] == [(len(steps), 1)] * len(prob.mesh.degrees)
        assert all(x[0] == 1 for x, _ in calls)
        # the same norms as an evaluation one level at a time
        levels = hist.mesh.l2_norm_against(
            hist.u[list(steps)], lambda x: np.array([U(x, n * hist.tau) for n in steps])
        )
        per_level = math.sqrt(hist.tau * float(np.sum(levels**2))) if at == "average" else float(levels[0])
        assert err == pytest.approx(per_level, rel=1e-14)


def test_scalar_only_reference_names_the_contract(small_mesh):
    prob = WaveProblem(1.0, 1.0, lambda x, t: _zero(x), _zero, _zero, 0.5, 1.0, small_mesh)
    hist = solve_wave(prob, 2.0**-4)
    what = r"l2_error: the reference failed on an array t; reference\(x, t\) must broadcast"
    with pytest.raises(ValueError, match=what):
        l2_error(hist, lambda x, t: math.exp(-t) * np.sin(np.pi * x), at="average")
    with pytest.raises(ValueError, match=r"l2_error: the reference returned shape \(3,\)"):
        l2_error(hist, lambda x, t: np.ones(3))
