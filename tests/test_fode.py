import dataclasses
import math
import re

import mpmath
import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracstep.corrections import CorrectionSet
from fracstep.fode import (
    ConvergenceError,
    MultiTermProblem,
    error_report,
    solve_corrected_wsgl,
    solve_l1,
    solve_trapezoidal,
    two_term_sigma_rule,
    _trap_kernel,
    _trap_memory,
)
from fracstep import fode
from fracstep.glweights import SampledPath, l1_weights, step_count, wsgl_weights
from fracstep.memory import Term
from fracstep.corrections import starting_weight_table
from fracstep.problems import (
    nonlinear_cubic_problem,
    two_term_ml_exact,
    two_term_ml_problem,
)
from fracstep.specfun import gamma
import oracles
from oracles import history


def test_problem_validation():
    with pytest.raises(ValueError):
        MultiTermProblem((0.0,), (0.5,), lambda t, y: 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        MultiTermProblem((1.0, 1.0), (0.3, 0.5), lambda t, y: 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        MultiTermProblem((1.0,), (1.5,), lambda t, y: 0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "nu, alphas, T, match",
    [
        ((math.nan,), (0.5,), 1.0, r"nu = \(nan,\)"),
        ((1.0, math.nan), (0.5, 0.3), 1.0, r"nu = \(1\.0, nan\)"),
        ((1.0,), (math.nan,), 1.0, r"alphas = \(nan,\)"),
        ((1.0,), (0.5,), math.nan, r"T = nan"),
        ((1.0,), (0.5,), math.inf, r"T = inf"),
    ],
)
def test_problem_rejects_nan_parameters_by_name(nu, alphas, T, match):
    with pytest.raises(ValueError, match=match):
        MultiTermProblem(nu, alphas, lambda t, y: 0.0, 0.0, T)


@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: solve_corrected_wsgl(two_term_ml_problem(0.5), math.nan), r"tau = nan"),
        (lambda: solve_corrected_wsgl(two_term_ml_problem(0.5), math.inf), r"tau = inf"),
        (lambda: SampledPath(math.nan, np.zeros(3)), r"tau = nan"),
        (lambda: solve_l1(nonlinear_cubic_problem(0.2, 0.1), math.nan), r"tau = nan"),
        (lambda: step_count(0.1, math.nan), r"T = nan"),
    ],
)
def test_step_input_rejected_by_name(build, match):
    with pytest.raises(ValueError, match=match):
        build()


def test_zero_problem_stays_zero():
    prob = MultiTermProblem((1.0, 1.5), (1.0, 0.5), lambda t, y: 0.0, 0.0, 1.0)
    path = solve_corrected_wsgl(prob, 2.0**-6)
    assert np.all(path.values == 0.0)


def test_constant_preserved_without_forcing():
    prob = MultiTermProblem((1.0,), (0.6,), lambda t, y: 0.0, 3.5, 1.0)
    path = solve_corrected_wsgl(prob, 2.0**-6)
    np.testing.assert_allclose(path.values, 3.5, rtol=1e-13)


def test_two_term_benchmark_row():
    # frozen published row: alpha = 0.5, sigma_k = (k+1) alpha, tau = 2^-8
    alpha = 0.5
    prob = two_term_ml_problem(alpha)
    exact = SampledPath(2.0**-8, two_term_ml_exact(alpha)(np.arange(2**8 + 1) / 2**8))
    expected = {0: 8.1812e-4, 1: 6.5427e-5, 2: 3.2368e-6, 3: 1.0496e-6}
    for m, target in expected.items():
        cset = CorrectionSet(tuple((k + 1) * alpha for k in range(1, m + 1)))
        path = solve_corrected_wsgl(prob, 2.0**-8, cset)
        rep = error_report(path, exact)
        assert rep.max_error == pytest.approx(target, rel=5e-4)


def test_two_term_final_time_row():
    alpha = 0.5
    prob = two_term_ml_problem(alpha)
    exact = two_term_ml_exact(alpha)
    cset = CorrectionSet((1.0, 1.5))
    path = solve_corrected_wsgl(prob, 2.0**-8, cset)
    rep = error_report(path, exact)
    assert rep.final_error == pytest.approx(1.8122e-7, rel=1e-3)


def test_max_norm_order_law():
    # observed max-norm order approaches min(2, (m+2) alpha) for alpha = 1/2
    alpha = 0.5
    prob = two_term_ml_problem(alpha)
    # exact solution evaluated once on the finest grid, subsampled for 2^-11
    exact = SampledPath(2.0**-12, two_term_ml_exact(alpha)(np.arange(2**12 + 1) / 2**12))
    for m in range(4):
        cset = CorrectionSet(tuple((k + 1) * alpha for k in range(1, m + 1)))
        errs = []
        for p in (11, 12):
            path = solve_corrected_wsgl(prob, 2.0**-p, cset)
            errs.append(error_report(path, exact).max_error)
        order = math.log2(errs[0] / errs[1])
        assert order == pytest.approx(min(2.0, (m + 2) * alpha), abs=0.1)


def test_startup_block_is_fixed_point():
    # the computed startup values satisfy the coupled scheme equations
    alpha = 0.5
    prob = two_term_ml_problem(alpha)
    cset = CorrectionSet((1.0, 1.5, 2.0))
    tau = 2.0**-6
    path = solve_corrected_wsgl(prob, tau, cset)
    yhat = path.values - prob.y0
    m = cset.m
    n_t = path.n_steps
    for n in range(1, m + 1):
        lhs = 0.0
        for nu, a in zip(prob.nu, prob.alphas):
            g = wsgl_weights(a, n_t)
            W = starting_weight_table(a, cset, n_t)
            conv = float(np.dot(g[: n + 1][::-1], yhat[: n + 1]))
            corr = float(np.dot(W[n], yhat[1 : m + 1]))
            lhs += nu * tau ** (-a) * (conv + corr)
        rhs = prob.rhs(n * tau, path.values[n])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-10)


def test_nonlinear_solver_converges():
    prob = nonlinear_cubic_problem(0.7, 0.5, T=2.0)
    cset = two_term_sigma_rule(0.7, 0.5, 3)
    path = solve_corrected_wsgl(prob, 2.0**-7, cset)
    assert np.all(np.isfinite(path.values))
    # cross-check against the trapezoidal reference at a fine step
    ref = solve_trapezoidal(prob, 2.0**-12)
    rep = error_report(path, ref)
    assert rep.final_error < 5e-4


def test_startup_failure_raises():
    # f is NaN on the two coupled startup steps, so the block's first Newton
    # update is not finite; the error names the solver and the block's steps
    prob = MultiTermProblem((1.0, 1.0), (0.7, 0.5), lambda t, y: math.nan if t <= 0.1 else -y, 1.0, 1.0)
    what = "solve_corrected_wsgl: steps 1..2, t <= 0.125: startup iteration diverged"
    with pytest.raises(ConvergenceError, match=f"^{re.escape(what)}$"):
        solve_corrected_wsgl(prob, 2.0**-4, (0.5, 0.7))


def test_nan_rhs_names_solver_step_and_time():
    # step 48 lies inside the run 32..63, after which the histories are fed
    for tau, t0, where in ((2.0**-5, 0.5, r"step 16, t = 0\.5"), (2.0**-6, 0.75, r"step 48, t = 0\.75")):

        def rhs(t, y):
            return math.nan if t >= t0 else -y

        prob = MultiTermProblem((1.0, 1.0), (0.7, 0.5), rhs, 1.0, 1.0)
        with pytest.raises(ConvergenceError, match=r"solve_corrected_wsgl: " + where):
            solve_corrected_wsgl(prob, tau, (0.5, 0.7))
        with pytest.raises(ConvergenceError, match=r"solve_l1: " + where):
            solve_l1(prob, tau)
        with pytest.raises(ConvergenceError, match=r"solve_trapezoidal: " + where):
            solve_trapezoidal(prob, tau)


def _counting(problem):
    calls = [0]

    def rhs(t, y):
        calls[0] += 1
        return problem.rhs(t, y)

    return calls, MultiTermProblem(problem.nu, problem.alphas, rhs, problem.y0, problem.T)


CUBIC_MARCHES = {
    "l1": solve_l1,
    "trapezoidal": solve_trapezoidal,
    "wsgl": lambda p, tau: solve_corrected_wsgl(p, tau, two_term_sigma_rule(*p.alphas, 3)),
}


@pytest.mark.parametrize("march", CUBIC_MARCHES)
def test_rhs_evaluations_per_step(march):
    # the secant step: f at the extrapolated guess, at the chord iterate and
    # at the secant iterate; a finite-difference slope costs two more
    calls, prob = _counting(nonlinear_cubic_problem(0.2, 0.1))
    path = CUBIC_MARCHES[march](prob, 2.0**-9)
    assert calls[0] <= 3.5 * path.n_steps


def test_linear_rhs_step_takes_one_iterate():
    # the secant slope of a linear f is exact, so the next step's first
    # iterate solves it: f at the guess and at that iterate
    calls, prob = _counting(two_term_ml_problem(0.1))
    path = solve_corrected_wsgl(prob, 2.0**-9, (0.1, 0.2, 0.3))
    assert calls[0] <= 2.1 * path.n_steps


@pytest.mark.parametrize(
    "rhs, lam, match",
    [
        (lambda t, y: -0.5 * y, math.nan, r"finite lam required, got lam = nan"),
        (lambda t, y: -0.5 * y, -math.inf, r"finite lam required, got lam = -inf"),
        (lambda t, y: -y, -0.5, r"rhs\(0, 1\.0\) = -1\.0 is not lam \* y, lam = -0\.5"),
        (lambda t, y: -0.5 * y + 1.0, -0.5, r"rhs\(0, 1\.0\) = 0\.5 is not lam \* y"),
        # agrees at y0 = 1, so only the second point catches it
        (lambda t, y: -0.5 * y * y, -0.5, r"rhs\(0, 2\.0\) = -2\.0 is not lam \* y"),
    ],
)
def test_wrong_linear_declaration_fails_loudly(rhs, lam, match):
    with pytest.raises(ValueError, match=match):
        MultiTermProblem((1.0, 1.5), (1.0, 0.5), rhs, 1.0, 1.0, lam)


def _secant(problem):
    """The same problem without its linear declaration, which the secant
    march solves."""
    return MultiTermProblem(problem.nu, problem.alphas, problem.rhs, problem.y0, problem.T)


def _no_secant_step(*args):
    raise AssertionError("a linear problem took a secant step")


def test_linear_problem_takes_the_run_march(monkeypatch):
    # the declaration survives dataclasses.replace, as a wrapped rhs does it,
    # and the march never reaches the secant step or calls f: only the
    # declaration's check does, at y0 and y0 + 1
    calls = []
    problem = two_term_ml_problem(0.5)
    wrapped = dataclasses.replace(problem, rhs=lambda t, y: calls.append(y) or problem.rhs(t, y))
    assert wrapped.lam == -0.5 and calls == [1.0, 2.0]
    monkeypatch.setattr(fode, "_implicit_step", _no_secant_step)
    for p in (problem, wrapped):
        path = solve_corrected_wsgl(p, 2.0**-8, (0.5, 1.0))
        assert np.all(np.isfinite(path.values))
    assert calls == [1.0, 2.0]
    solve_l1(problem, 2.0**-8)
    solve_trapezoidal(dataclasses.replace(problem, nu=(1.0, 1.0)), 2.0**-8)
    with pytest.raises(AssertionError, match="secant step"):
        solve_corrected_wsgl(_secant(problem), 2.0**-8)


LINEAR_MARCHES = {
    "wsgl0": lambda p, tau: solve_corrected_wsgl(p, tau),
    "wsgl5": lambda p, tau: solve_corrected_wsgl(p, tau, tuple((k + 1) * p.alphas[-1] for k in range(5))),
    "l1": solve_l1,
    "trapezoidal": solve_trapezoidal,
}


def _ulp_floor(march, problem, tau, monkeypatch):
    """How far the secant march moves when each step's known part moves by
    one ulp, of random sign: the rounding floor of any other summation."""
    rng = np.random.default_rng(0)
    step = fode._implicit_step

    def perturbed(f, t, y0, a, known, b, guess, d):
        return step(f, t, y0, a, known + rng.choice((-1.0, 1.0)) * math.ulp(known), b, guess, d)

    with monkeypatch.context() as patch:
        patch.setattr(fode, "_implicit_step", perturbed)
        moved = LINEAR_MARCHES[march](problem, tau).values
    return np.max(np.abs(moved - LINEAR_MARCHES[march](problem, tau).values))


@pytest.mark.parametrize("alpha", [0.1, 0.5])
@pytest.mark.parametrize("march", LINEAR_MARCHES)
def test_run_march_matches_secant_march(march, alpha, monkeypatch):
    # the run march and the secant march on the same linear problem, within
    # 1e-13 relative.  The trapezoid takes unit weights; at alpha = 1/2 its
    # orders are (1, 1/2), where its kernel 1 / c^(1) = (1 - z) / (1 + z)
    # does not decay, so rounding accumulates over the steps: a one-ulp
    # change of each secant step's known part moves the secant march itself
    # by 4.9e-13 at tau = 2^-12, and there the bound is four times that floor
    problem = two_term_ml_problem(alpha)
    if march == "trapezoidal":
        problem = dataclasses.replace(problem, nu=(1.0, 1.0))
    for p in range(6, 13):
        tau = 2.0**-p
        run = LINEAR_MARCHES[march](problem, tau).values
        secant = LINEAR_MARCHES[march](_secant(problem), tau).values
        bound = 1e-13 * np.max(np.abs(secant))
        if march == "trapezoidal" and alpha == 0.5:
            bound = max(bound, 4.0 * _ulp_floor(march, _secant(problem), tau, monkeypatch))
        assert np.max(np.abs(run - secant)) <= bound, (p, np.max(np.abs(run - secant)))


@given(lam=st.floats(-50.0, -0.01), alpha=st.floats(0.05, 1.0), m=st.integers(0, 3))
def test_run_march_matches_secant_march_on_random_decay(lam, alpha, m):
    # D^alpha y = lam y, lam < 0, corrected on (k+1) alpha, k < m: every
    # exponent within the growth bound 2 + alpha of the starting weights
    problem = MultiTermProblem((1.0,), (alpha,), lambda t, y: lam * y, 1.0, 1.0, lam)
    sigma = tuple((k + 1) * alpha for k in range(m))
    run = solve_corrected_wsgl(problem, 2.0**-8, sigma).values
    secant = solve_corrected_wsgl(_secant(problem), 2.0**-8, sigma).values
    assert np.max(np.abs(run - secant)) <= 1e-13 * np.max(np.abs(secant))


@pytest.mark.parametrize("solve", [solve_l1, lambda p, tau: solve_corrected_wsgl(p, tau, (1.0, 1.5))])
def test_growing_linear_march_names_step_and_time(solve):
    # y grows like exp(1000 t) and leaves the double range near t = 0.6; the
    # run march names its first non-finite level, as the secant march names
    # the step it could not solve
    tau = 2.0**-11
    problem = MultiTermProblem((1.0, 1.5), (1.0, 0.5), lambda t, y: 1e3 * y, 1.0, 10.0, 1e3)
    with pytest.raises(ConvergenceError, match=r"^solve_\w+: step \d+, t = [\d.]+: solution is not finite$") as info:
        solve(problem, tau)
    n = int(re.search(r"step (\d+)", str(info.value)).group(1))
    assert 1000 < n < 1600 and f"t = {n * tau:g}:" in str(info.value)


def _mp_trap_weights(alpha, n_t, tau):
    """The product rule for I^alpha built in 30 digits and rounded to long
    double: c_j = a_{n,n-j} (j = 0..n_t) and the endpoint weights a_{n,0}
    (n = 0..n_t, a_{0,0} = 0)."""

    def rounded(values):
        hi = [float(v) for v in values]
        return np.array(hi, dtype=np.longdouble) + np.array([float(v - h) for v, h in zip(values, hi)], np.longdouble)

    with mpmath.workdps(30):
        a = mpmath.mpf(alpha)
        scale = mpmath.mpf(tau) ** a / mpmath.gamma(a + 2)
        p = [mpmath.mpf(j) ** (a + 1) for j in range(n_t + 2)]
        c = [scale] + [scale * (p[j + 1] - 2 * p[j] + p[j - 1]) for j in range(1, n_t + 1)]
        a0 = [0] + [scale * (p[n - 1] - (n - 1 - a) * mpmath.mpf(n) ** a) for n in range(1, n_t + 1)]
        return rounded(c), rounded(a0)


def test_trapezoid_solves_its_scheme():
    # the march against its scheme CD yhat = CF F + a_0 F^0 with weights
    # built in 30 digits and sums in long double.  The endpoint weights a_0
    # cancel to O(n^-2); formed in double they left a residual of 7.1e-12
    # here, and the march now never forms them.
    prob = nonlinear_cubic_problem(0.2, 0.1)
    tau = 2.0**-9
    path = solve_trapezoidal(prob, tau)
    n = len(path.values)
    cf, a0 = _mp_trap_weights(0.2, n - 1, tau)
    cd = _mp_trap_weights(0.1, n - 1, tau)[0]
    cd[0] += 1
    yhat = (path.values - prob.y0).astype(np.longdouble)
    fv = np.array([prob.rhs(t, y) for t, y in zip(path.times, path.values)], dtype=np.longdouble)
    lhs = np.convolve(cd, yhat)[:n]
    rhs = np.convolve(cf, np.append(0.0, fv[1:]))[:n] + a0 * fv[0]
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(lhs))


def _slope_jump_rhs(t, y):
    return -y if t < 0.5 else -50.0 * y


@pytest.mark.parametrize("march", CUBIC_MARCHES)
def test_slope_jump_takes_a_fresh_slope(march, monkeypatch):
    # at t = 0.5 the slope carried from the step before is 50 times off, so
    # its iterate does not halve the residual: the step takes a fresh
    # finite-difference slope, converges, and every level solves the scheme
    slopes = []

    def spy(f, t, y):
        slopes.append(t)
        return fd_slope(f, t, y)

    fd_slope = fode._fd_slope
    monkeypatch.setattr(fode, "_fd_slope", spy)
    prob = MultiTermProblem((1.0, 1.0), (0.7, 0.5), _slope_jump_rhs, 1.0, 1.0)
    tau = 2.0**-5
    path = CUBIC_MARCHES[march](prob, tau)
    assert 0.5 in slopes
    n_t, yhat = path.n_steps, path.values - prob.y0
    fv = np.array([_slope_jump_rhs(t, y) for t, y in zip(path.times, path.values)])
    if march == "trapezoidal":  # the scheme as marched, times cf_0 CF^-1
        k, b, gu = _trap_memory(0.7, 0.5, n_t, tau)
        lhs, m, load = [Term(1.0, k)], 0, fv[0] * (b - gu)
    else:
        b, load = 1.0, np.zeros(n_t + 1)
        if march == "l1":
            lhs, m = [Term(1.0, l1_weights(a, n_t, tau)) for a in prob.alphas], 0
        else:
            cset = two_term_sigma_rule(0.7, 0.5, 3)
            lhs = [
                Term(tau**-a, wsgl_weights(a, n_t), starting_weight_table(a, cset, n_t))
                for a in prob.alphas
            ]
            m = cset.m
    a = sum(t.scale * t.kernel[0] for t in lhs)
    slope = a + 50.0 * b  # the largest |dr/dx| of a step's residual r
    for n in range(m + 1, n_t + 1):
        residual = a * yhat[n] + history(lhs, yhat, n) + load[n] - b * fv[n]
        # each step stops within 1e-13 relative of its root
        assert abs(residual) <= 1e-13 * slope * max(1.0, abs(yhat[n])), (n, residual)


def test_linear_decay_is_monotone_and_bounded():
    for lam in (1.0, 10.0, 100.0):
        for alpha in (0.3, 0.5, 0.7):
            for p in (4, 7, 10):
                for m in (0, 2):
                    prob = MultiTermProblem(
                        (1.0,), (alpha,), lambda t, y, lam=lam: -lam * y, 1.0, 1.0
                    )
                    cset = CorrectionSet(tuple(k * alpha for k in range(1, m + 1)))
                    path = solve_corrected_wsgl(prob, 2.0**-p, cset)
                    y = np.abs(path.values)
                    assert np.all(y <= 1.0 + 1e-12)
                    assert np.all(np.diff(y[m + 1 :]) <= 1e-14)


def test_l1_exact_for_linear_solution():
    # manufactured: Y = 2 + 3t, f set to the exact multi-term derivative
    nu = (1.0, 0.5)
    alphas = (0.8, 0.4)

    def f(t, y):
        if t == 0.0:
            return 0.0
        return sum(
            v * 3.0 * t ** (1.0 - a) / gamma(2.0 - a) for v, a in zip(nu, alphas)
        )

    prob = MultiTermProblem(nu, alphas, f, 2.0, 1.0)
    path = solve_l1(prob, 2.0**-5)
    exact = 2.0 + 3.0 * path.times
    assert np.max(np.abs(path.values - exact)) <= 1e-12


def test_l1_constant_preserved():
    prob = MultiTermProblem((1.0,), (0.5,), lambda t, y: 0.0, 1.25, 1.0)
    path = solve_l1(prob, 2.0**-5)
    np.testing.assert_allclose(path.values, 1.25, rtol=1e-13)


def test_l1_order_one_is_backward_euler():
    # at alpha = 1 the L1 weights are the backward difference, so y' = -y
    # marches as backward Euler: y^n = (1 + tau)^-n
    tau = 2.0**-6
    prob = MultiTermProblem((1.0,), (1.0,), lambda t, y: -y, 1.0, 1.0)
    path = solve_l1(prob, tau)
    np.testing.assert_allclose(path.values, (1.0 + tau) ** -np.arange(65.0), rtol=1e-13)


def test_l1_less_accurate_than_corrected():
    prob = nonlinear_cubic_problem(0.7, 0.5, T=10.0)
    tau = 10.0 / 2.0**8
    ref = solve_trapezoidal(prob, 10.0 / 2.0**13)
    e_l1 = error_report(solve_l1(prob, tau), ref).final_error
    cset = two_term_sigma_rule(0.7, 0.5, 3)
    e_wsgl = error_report(
        solve_corrected_wsgl(prob, tau, cset), ref
    ).final_error
    assert e_l1 > e_wsgl


def test_trapezoidal_quadrature_exact_on_linear():
    # the product rule integrates piecewise-linear functions exactly:
    # sum_k a_{n,k} g(t_k) = I^alpha g(t_n) for g(t) = c0 + c1 t
    from fracstep.fode import _trap_kernel

    alpha, tau, n_t = 0.65, 0.05, 40
    c0, c1 = 0.7, -1.3
    t = np.arange(n_t + 1) * tau
    gvals = c0 + c1 * t
    ann = tau**alpha / gamma(2.0 + alpha)
    kern = ann * _trap_kernel(alpha, n_t)
    for n in (1, 7, 40):
        tn = n * tau
        a0 = tn**alpha / gamma(1.0 + alpha) - float(np.sum(kern[:n]))  # the endpoint weight exact on constants
        quad = a0 * gvals[0] + float(np.dot(kern[1:n][::-1], gvals[1:n])) + ann * gvals[n]
        exact = c0 * tn**alpha / gamma(1.0 + alpha) + c1 * tn ** (1.0 + alpha) / gamma(2.0 + alpha)
        assert quad == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize(
    "a1,a2,n_t,tau",
    [(0.2, 0.1, 5120, 2.0**-9), (0.3, 0.1, 5120, 2.0**-9), (0.2, 0.05, 5120, 2.0**-9), (0.7, 0.5, 320, 2.0**-5)],
)
def test_trapezoid_tables_match_the_scaled_form(a1, a2, n_t, tau):
    # the tau-free tables, scaled per tau, against the kernels of the rules
    # scaled first, G = reciprocal(cf / cf_0)
    k, b, gu = _trap_memory(a1, a2, n_t, tau)
    k_old, b_old, gu_old = oracles.trap_memory(a1, a2, n_t, tau)
    assert b == b_old
    for got, want in ((k, k_old), (gu, gu_old)):
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


def test_trapezoidal_second_order_on_two_term_problem():
    # smooth two-term problem: self-convergence at second order
    a1, a2 = 0.7, 0.4

    def f(t, y):
        return -y + math.cos(t)

    prob = MultiTermProblem((1.0, 1.0), (a1, a2), f, 1.0, 1.0)
    ref = solve_trapezoidal(prob, 2.0**-12)
    errs = [
        error_report(solve_trapezoidal(prob, 2.0**-p), ref).final_error for p in (5, 6)
    ]
    assert math.log2(errs[0] / errs[1]) == pytest.approx(2.0, abs=0.35)


def test_trapezoidal_diagonal_coefficient():
    # the k = n weight of the product rule equals the weakly singular integral
    # of the rising linear hat, int_0^tau u^(a-1) (tau - u) du / (tau Gamma(a)),
    # evaluated here by desingularized quadrature as the independent oracle
    for alpha, tau in ((0.3, 0.1), (0.75, 0.02)):
        w, x = np.polynomial.legendre.leggauss(200)[1], np.polynomial.legendre.leggauss(200)[0]
        upper = tau**alpha
        nodes = (x + 1.0) * upper / 2.0  # substitution u = w^(1/alpha)
        integral = float(np.dot(w, (tau - nodes ** (1.0 / alpha)) / alpha)) * upper / 2.0
        oracle = integral / (tau * gamma(alpha))
        assert tau**alpha / gamma(2.0 + alpha) == pytest.approx(oracle, rel=1e-8)
        # the k = 0 weight, implied by exactness on constants: u_1 - a_{1,1}
        a0 = tau**alpha / gamma(1.0 + alpha) - tau**alpha / gamma(2.0 + alpha) * _trap_kernel(alpha, 1)[0]
        assert a0 == pytest.approx(alpha * tau**alpha / gamma(2.0 + alpha))


def test_trapezoidal_shape_errors():
    prob = MultiTermProblem((1.0,), (0.5,), lambda t, y: 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_trapezoidal(prob, 0.125)
    prob2 = MultiTermProblem((1.0, 1.0), (0.5, 0.5), lambda t, y: 0.0, 0.0, 1.0)
    with pytest.raises(ValueError):
        solve_trapezoidal(prob2, 0.125)


@pytest.mark.slow
def test_reference_methods_agree():
    # the two reference generators track each other on the nonlinear problem;
    # inside the initial layer they differ at O(tau^alpha_1) by construction,
    # so agreement is measured at the final time and away from the layer
    prob = nonlinear_cubic_problem(0.2, 0.1, T=10.0)
    tau = 10.0 / 2.0**17
    a = solve_trapezoidal(prob, tau)
    b = solve_l1(prob, tau)
    diff = np.abs(a.values - b.values)
    assert diff[-1] <= 1e-6
    assert np.max(diff[a.times >= 0.5]) <= 1e-5


def test_error_report_zero_and_constant():
    path = SampledPath(0.25, np.array([1.0, 2.0, 3.0, 2.0, 1.0]))
    rep_same = error_report(path, SampledPath(0.25, path.values.copy()))
    assert rep_same.max_error == 0.0 and rep_same.final_error == 0.0 and rep_same.avg_error == 0.0
    # constant error c: max = final = |c|, avg = |c| sqrt(T)
    c = 0.3
    T = 1.0
    rep_c = error_report(path, SampledPath(0.25, path.values + c))
    assert rep_c.max_error == pytest.approx(c)
    assert rep_c.final_error == pytest.approx(c)
    assert rep_c.avg_error == pytest.approx(c * math.sqrt(T), rel=1e-12)


def test_error_report_subsampling_and_mismatch():
    fine = SampledPath(0.125, np.arange(9, dtype=float))
    coarse = SampledPath(0.25, np.array([0.0, 2.0, 4.0, 6.0, 8.0]))
    rep = error_report(coarse, fine)
    assert rep.max_error == 0.0
    with pytest.raises(ValueError):
        error_report(coarse, SampledPath(0.3, np.zeros(12)))


def test_error_report_norm_inequality():
    rng = np.random.default_rng(2)
    path = SampledPath(2.0**-6, rng.normal(size=65))
    rep = error_report(path, lambda t: 0.0)
    assert rep.avg_error <= math.sqrt(1.0) * rep.max_error + 1e-15


def test_error_report_calls_exact_once_with_the_times():
    path = SampledPath(0.25, np.array([1.0, 0.5, 0.0, -0.5, -1.0]))
    calls = []

    def exact(t):
        calls.append(t)
        return 1.0 - 2.0 * t

    rep = error_report(path, exact)
    assert len(calls) == 1
    np.testing.assert_array_equal(calls[0], path.times)
    assert rep.max_error == 0.0
    # a scalar-returning callable is broadcast over the path
    rep0 = error_report(path, lambda t: 0.0)
    assert rep0.max_error == 1.0 and rep0.final_error == 1.0


@pytest.mark.parametrize("alpha", [0.1, 0.5])
def test_two_term_exact_on_arrays(alpha):
    # the array form is 2 E(-t^a/2) - E(-t^a) from the scalar series at every
    # point, bit for bit, and exactly 1 at t = 0
    from oracles import ml_series_scalar

    Y = two_term_ml_exact(alpha)
    t = np.arange(33) / 32
    got = Y(t)
    assert got.shape == t.shape
    assert got[0] == 1.0 and Y(0.0) == 1.0 and type(Y(0.0)) is float
    for tk, yk in zip(t.tolist(), got.tolist()):
        z = tk**alpha
        want = 2.0 * ml_series_scalar(alpha, -z / 2.0)[0] - ml_series_scalar(alpha, -z)[0]
        assert yk == want and Y(tk) == want


def test_two_term_sigma_rule_values():
    cset = two_term_sigma_rule(0.7, 0.5, 3)
    np.testing.assert_allclose(cset.sigmas, [0.7, 0.9, 1.1], rtol=1e-15)
    with pytest.raises(ValueError):
        two_term_sigma_rule(0.5, 0.7, 2)
