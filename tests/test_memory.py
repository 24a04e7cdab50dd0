"""Oracles for the shared memory core: the online FFT history agrees with the
direct sum, and every stepper is exact, to rounding, on solutions spanned by
its corrected powers, and loses that exactness without the corrections."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracstep import fode, memory, tfpde
from fracstep.corrections import CorrectionSet, starting_weight_table
from fracstep.fode import (
    MultiTermProblem,
    _trap_memory,
    solve_corrected_wsgl,
    solve_l1,
    solve_trapezoidal,
)
from fracstep.glweights import gl_weights, l1_weights, rl_deriv_power, wsgl_weights
from fracstep.memory import History, Term, startup_matrix
from fracstep.problems import (
    nonlinear_cubic_problem,
    subdiffusion_forced_problem,
    two_term_ml_problem,
    two_zone_unit_mesh,
    wave_forced_problem,
)
from fracstep.sem import SpectralMesh
from fracstep.tfpde import (
    SubdiffusionProblem,
    WaveProblem,
    solve_subdiffusion,
    solve_subdiffusion_l1_baseline,
    solve_wave,
)
from oracles import DirectHistory, history, known_parts

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
    path = solve_corrected_wsgl(problem, tau, powers[:m])
    return float(np.max(np.abs(path.values - [exact(t) for t in path.times])))


@pytest.mark.parametrize("tau", TAUS)
def test_fode_exact_on_power_span(tau):
    assert _fode_power_span_error(tau, 3) <= 1e-13
    assert _fode_power_span_error(tau, 0) >= 1e-3


def _subdiffusion_power_span_error(tau, m, nu=(1.0, 1.0), alphas=(0.75, 0.5), powers=(0.75, 1.0)):
    mu = 1.0

    def time_part(t):
        return sum(t**s for s in powers)

    def source(x, t):
        frac = sum(sum(v * rl_deriv_power(a, s, t) for v, a in zip(nu, alphas)) for s in powers)
        x = np.asarray(x)
        return frac * x * (1.0 - x) + 2.0 * mu * time_part(t)

    mesh = two_zone_unit_mesh(8)
    problem = SubdiffusionProblem(nu, alphas, mu, source, _zero, 1.0, mesh)
    hist = solve_subdiffusion(problem, tau, powers[:m])
    x = mesh.nodes
    exact = np.array([time_part(t) * x * (1.0 - x) for t in np.arange(len(hist.u)) * hist.tau])
    return float(np.max(np.abs(hist.u - exact)))


@pytest.mark.parametrize("tau", TAUS)
def test_subdiffusion_exact_on_power_span(tau):
    assert _subdiffusion_power_span_error(tau, 2) <= 1e-13
    assert _subdiffusion_power_span_error(tau, 0) >= 1e-4


@pytest.mark.parametrize("tau", TAUS)
def test_three_term_subdiffusion_exact_on_power_span(tau):
    # Q = 3 takes no code of its own: History sums the three terms' kernels
    span = {"nu": (1.0, 0.7, 0.3), "alphas": (0.75, 0.5, 0.25), "powers": (0.75, 1.0, 1.25)}
    assert _subdiffusion_power_span_error(tau, 3, **span) <= 1e-13
    assert _subdiffusion_power_span_error(tau, 0, **span) >= 1e-4


def _wave_power_span_error(tau, counts, nu=(1.0,), alphas=(0.5,)):
    mu = 1.0

    def time_part(t):
        return t**2 + t**2.5

    def source(x, t):
        dtt = 2.0 + 2.5 * 1.5 * t**0.5
        frac = sum(v * (2.0 * rl_deriv_power(a, 1.0, t) + 2.5 * rl_deriv_power(a, 1.5, t)) for v, a in zip(nu, alphas))
        return (dtt + frac) * (1.0 - np.asarray(x) ** 2) + 2.0 * mu * time_part(t)

    mesh = SpectralMesh([-1.0, 0.0, 1.0], (4, 4))
    problem = WaveProblem(nu, alphas, mu, source, _zero, _zero, 1.0, mesh)
    hist = solve_wave(problem, tau, (2.0, 2.5, 3.0), *counts)
    x = mesh.nodes
    exact = np.array([time_part(t) * (1.0 - x**2) for t in np.arange(len(hist.u)) * hist.tau])
    return float(np.max(np.abs(hist.u - exact)))


_Q2 = {"nu": (1.0, 0.5), "alphas": (0.5, 0.3)}  # Q = 2 takes no code of its own: each weight sits in its term's scale


@pytest.mark.parametrize(
    "counts, span",
    [((2, 2, 2), {}), ((2, 3, 2), {}), ((2, 2, 2), _Q2), ((2, 3, 2), _Q2)],
    ids=["counts0", "counts1", "q2-counts0", "q2-counts1"],
)
@pytest.mark.parametrize("tau", TAUS)
def test_wave_exact_on_power_span(tau, counts, span):
    assert _wave_power_span_error(tau, counts, **span) <= 1e-13
    assert _wave_power_span_error(tau, (0, 0, 0), **span) >= 1e-5


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
    # the same scale * (Toeplitz convolution + starting weights); the
    # history holds above the startup levels 0..m, which startup_matrix covers
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
    hist = History(terms, x)
    for n in range(1, n_t + 1):
        hist.feed(n - 1)
        if n > m:
            assert hist.c[0] * x[n] + hist.known(n) == pytest.approx(dense[n] @ x, rel=1e-13)
    np.testing.assert_allclose(startup_matrix(terms, m), dense[: m + 1, 1 : m + 1], rtol=1e-15)
    assert startup_matrix(terms, m).shape == (m + 1, m)


def _memory(kind, n_t):
    """(m, terms, load): the fixed part of the known parts is load[n] x^0."""
    tau = 2.0**-6
    if kind == "wsgl":
        cset = CorrectionSet((0.6, 1.2, 1.8))
        return 3, [
            Term(tau**-0.6, wsgl_weights(0.6, n_t), starting_weight_table(0.6, cset, n_t)),
            Term(0.5 * tau**-0.3, wsgl_weights(0.3, n_t), starting_weight_table(0.3, cset.truncated(2), n_t)),
        ], np.zeros(n_t + 1)
    if kind == "l1":
        return 0, [Term(1.0, l1_weights(0.35, n_t, tau)), Term(2.0, l1_weights(0.7, n_t, tau))], np.zeros(n_t + 1)
    # the trapezoid: one kernel G cd and the load b - G u on f^0, here x^0
    k, b, gu = _trap_memory(0.7, 0.2, n_t, tau)
    return 0, [Term(1.0, k)], b - gu


def _magnitude(t):
    return Term(abs(t.scale), np.abs(t.kernel), None if t.table is None else np.abs(t.table))


NODE_RULES = {"direct": lambda r, L: True, "fft": lambda r, L: False}


@pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "field"])
@pytest.mark.parametrize("n_t", [31, 32, 33, 1023, 1024, 1025, 4096, 5000])
@pytest.mark.parametrize("kind", ["wsgl", "l1", "trapezoid"])
def test_history_matches_direct_sum(kind, n_t, shape, monkeypatch):
    # levels not yet fed are NaN, so a read of one shows; each level is read
    # as a march reads it, before it is solved, and as the wave march reads
    # it, right after the level below it is fed.  Small column chunks split
    # the field's 3 columns 2 + 1 at L = 32 and 1 + 1 + 1 above.  The march
    # runs once with every node by a direct product and once with every node
    # by FFT: at n_t = 1024 and 4096 the last node has one target, at 1025
    # and 5000 it is clipped to 2 and 905.
    # The oracle is the direct sum, one np.convolve per term and column.
    monkeypatch.setattr(memory, "_CHUNK", 128)
    m, terms, load = _memory(kind, n_t)
    values = np.random.default_rng(n_t).standard_normal((n_t + 1, *shape))
    fixed = np.multiply.outer(load, values[0])
    want = known_parts(terms, values) + fixed
    scale = known_parts([_magnitude(t) for t in terms], np.abs(values)) + np.abs(fixed)
    for rule in NODE_RULES.values():
        monkeypatch.setattr(memory, "_direct", rule)
        x = np.full_like(values, np.nan)
        hist = History(terms, x, fixed)
        for n in range(n_t + 1):
            if n > m:
                before = hist.known(n)
            x[n] = values[n]
            hist.feed(n)
            reads = [(n, before)] if n > m else []
            if m <= n < n_t:
                reads.append((n + 1, hist.known(n + 1)))
            for level, got in reads:
                assert np.all(np.abs(got - want[level]) <= 1e-13 * scale[level]), (level, got, want[level])


@pytest.mark.parametrize("path", [*NODE_RULES, "rule"])
@pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "field"])
@pytest.mark.parametrize("n_levels", [1, 2, 31, 32, 33, 100, 641, 1025, 3000])
def test_convolve_matches_direct_sum(n_levels, shape, path, monkeypatch):
    # the static split, lag 0 included, against np.convolve per column, to
    # the same bound as the history; c reaches past the last level, as the
    # starting-weight tables pass it
    if path != "rule":
        monkeypatch.setattr(memory, "_direct", NODE_RULES[path])
    rng = np.random.default_rng(n_levels)
    c = rng.standard_normal(2 * n_levels)
    x = rng.standard_normal((n_levels, *shape))
    got = memory.convolve(c, x)
    assert got.shape == x.shape
    columns = x.reshape(n_levels, -1).T
    want = np.array([np.convolve(c, col)[:n_levels] for col in columns]).T.reshape(x.shape)
    scale = np.array([np.convolve(np.abs(c), np.abs(col))[:n_levels] for col in columns]).T.reshape(x.shape)
    assert np.all(np.abs(got - want) <= 1e-13 * scale)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "field"])
@pytest.mark.parametrize("kind", ["wsgl", "trapezoid"])
def test_fixed_columns_are_read_once(kind, shape):
    # the far field starts as the fixed part and feed(m) folds the
    # starting-weight tables into it, so the march reads neither again
    n_t = 200
    m, terms, load = _memory(kind, n_t)
    values = np.random.default_rng(11).standard_normal((n_t + 1, *shape))
    fixed = np.multiply.outer(load, values[0])
    want = {n: history(terms, values, n) + fixed[n] for n in range(m + 1, n_t + 1)}
    scale = {n: history([_magnitude(t) for t in terms], np.abs(values), n) + np.abs(fixed[n]) for n in want}
    x = np.full_like(values, np.nan)
    hist = History(terms, x, fixed)
    for n in range(m + 1):
        x[n] = values[n]
        hist.feed(n)
    fixed[:] = np.nan
    for t in terms:
        if t.table is not None:
            t.table[:] = np.nan
    for n in range(m + 1, n_t + 1):
        got = hist.known(n)
        assert np.all(np.abs(got - want[n]) <= 1e-13 * scale[n]), (n, got, want[n])
        x[n] = values[n]
        hist.feed(n)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "field"])
@pytest.mark.parametrize("kind", ["wsgl", "trapezoid"])
def test_feeding_run_ends_is_feeding_every_level(kind, shape):
    # the feed contract: a history fed at its startup levels and at the end
    # of each run reads every level bit for bit as one fed at every level,
    # through FFT nodes and the clipped last one; wsgl carries a table,
    # trapezoid a fixed part
    n_t = 1000
    m, terms, load = _memory(kind, n_t)
    x = np.random.default_rng(5).standard_normal((n_t + 1, *shape))
    fixed = np.multiply.outer(load, x[0])
    every, at_run_ends = History(terms, x, fixed), History(terms, x, fixed)
    for n in range(m + 1):
        every.feed(n)
        at_run_ends.feed(n)
    for s, e in memory.runs(m + 1, n_t + 1):
        for n in range(s, e):
            assert np.array_equal(at_run_ends.known(n), every.known(n)), n
            every.feed(n)
        at_run_ends.feed(e - 1)
    assert np.array_equal(at_run_ends.far, every.far)


@pytest.mark.parametrize("shape", [(), (3,)], ids=["scalar", "field"])
@pytest.mark.parametrize("kind", ["wsgl", "l1", "trapezoid"])
def test_known_run_matches_direct_sum(kind, shape):
    # each run's known parts from the levels below it, read before the run is
    # filled (NaN until then): the first run [m+1, 32) clipped at level 0, the
    # aligned runs and the clipped last run [192, 201)
    n_t = 200
    m, terms, load = _memory(kind, n_t)
    values = np.random.default_rng(13).standard_normal((n_t + 1, *shape))
    fixed = np.multiply.outer(load, values[0])
    magnitude = [_magnitude(t) for t in terms]
    x = np.full_like(values, np.nan)
    hist = History(terms, x, fixed)
    for n in range(m + 1):
        x[n] = values[n]
        hist.feed(n)
    for s, e in memory.runs(m + 1, n_t + 1):
        got = hist.known_run(s, e)
        below = np.zeros_like(values)
        below[:s] = values[:s]
        for n in range(s, e):
            want = history(terms, below, n) + fixed[n]
            scale = history(magnitude, np.abs(below), n) + np.abs(fixed[n])
            assert np.all(np.abs(got[n - s] - want) <= 1e-13 * scale), (s, n)
        x[s:e] = values[s:e]
        hist.feed(e - 1)


@pytest.mark.parametrize("n_x,n_levels", [(1, 2), (16, 32), (32, 64), (33, 64), (100, 200), (1024, 2048), (1500, 2049)])
@pytest.mark.parametrize("shape", [(), (2,)], ids=["scalar", "field"])
def test_convolve_past_the_end_of_x_is_zero_padding(n_x, n_levels, shape):
    # the nodes and blocks that read only zeros are skipped: the levels are
    # the same bits as those of x padded with zeros
    rng = np.random.default_rng(n_levels)
    c = rng.standard_normal(2 * n_levels)
    x = rng.standard_normal((n_x, *shape))
    padded = np.concatenate([x, np.zeros((n_levels - n_x, *shape))])
    got = memory.convolve(c, x, n_levels)
    assert got.shape == padded.shape
    np.testing.assert_array_equal(got, memory.convolve(c, padded))


@pytest.mark.parametrize("n", [1, 2, 31, 32, 33, 1023, 1024, 1025, 2**15, 2**15 + 1, 2**15 + 2])
@pytest.mark.parametrize("alpha", [0.1, 0.5, 0.9])
def test_reciprocal_matches_gl_pair(alpha, n):
    # gl_weights(alpha) and gl_weights(-alpha) are the series of (1 - z)^alpha
    # and (1 - z)^-alpha, each other's reciprocal to rounding (their product
    # is delta to 1.4e-17 at alpha = 0.3); lengths straddle the near field
    # and powers of two, past which the last node has a target or two
    got = memory.reciprocal(gl_weights(alpha, n - 1))
    want = gl_weights(-alpha, n - 1)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= 1e-12 * np.abs(want))


def _dense_or_view(inverse: np.ndarray, dense: bool) -> np.ndarray:
    """``run_inverse``'s strided view as the wave march reads it, or the dense
    copy that ``linear_march`` reads."""
    return inverse.copy() if dense else inverse


@st.composite
def _runs(draw):
    """A run [s, e) that does not cross a multiple of 32, after level 0."""
    s = max(1, 32 * draw(st.integers(0, 6)) + draw(st.one_of(st.just(0), st.integers(1, 31))))
    return s, s + draw(st.integers(1, 32 - s % 32))


def _wave_lags(c, P, Qtau, s):
    """Per-column lags of the wave's run systems (``tfpde._march_wave``):
    1, then -P - Qtau / 2 + s c_1 and -Qtau + s (c_l + c_{l-1})."""
    lags = np.multiply.outer(s, c[:32] + np.append(0.0, c[:31])) - Qtau[:, None]
    lags[:, 0] = 1.0
    lags[:, 1] = -P - Qtau / 2 + s * c[1]
    return lags


@given(
    kind=st.sampled_from(["wsgl", "l1", "wave"]),
    alpha=st.floats(0.01, 1.0),
    exponents=st.lists(st.floats(0.0, 6.0), min_size=1, max_size=4),
    run=_runs(),
    dense=st.booleans(),
)
def test_run_solve_matches_substitution(kind, alpha, exponents, run, dense):
    # one batched product per run against level-by-level substitution
    # x^n = (b^n - known(n)) / d, per column, with diagonals d from 1 to 1e6,
    # or, for per-column lags, x^n = b^n - sum_l lags[l] x^{n-l} on the run
    # alone; the wave's columns run from a smooth mode (lags -1, 0, ...) to
    # its stiff limit (lags 3, 4, 4, ...), whose inverse grows as
    # (-1)^i (2i + 1)
    s, e = run
    n = e - 1
    rng = np.random.default_rng(s)
    if kind == "wave":
        stiff = np.array(exponents) / 6.0  # 0 .. 1, the last column fully stiff
        stiff[-1] = 1.0
        lags = _wave_lags(wsgl_weights(alpha, 32) * 1e-2, 1.0 - 2.0 * stiff, -4.0 * stiff, 1.0 - stiff)
        b = rng.standard_normal((e - s, len(stiff)))
        got = memory.solve_run(_dense_or_view(memory.run_inverse(lags, np.ones(len(stiff))), dense), b)
        want = np.zeros_like(b)
        for k in range(e - s):
            want[k] = b[k] - np.einsum("cl,lc->c", lags[:, k:0:-1], want[:k])
    else:
        c = wsgl_weights(alpha, n) if kind == "wsgl" else l1_weights(alpha, n, 1.0)
        d = 10.0 ** np.array(exponents)
        x = np.zeros((e, len(d)))
        x[:s] = rng.standard_normal((s, len(d)))
        b = rng.standard_normal((e - s, len(d)))
        hist = History([Term(1.0, c)], x)
        for k in range(s):
            hist.feed(k)
        got = memory.solve_run(_dense_or_view(memory.run_inverse(hist.c, d), dense), b - hist.known_run(s, e))
        for k in range(s, e):
            x[k] = (b[k - s] - hist.known(k)) / d
        want = x[s:e]
    assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want).max(axis=0))


SOLVES = {
    # alpha_1 = 1: the BDF2 weights tau^-1 (3/2, -2, 1/2) dwarf the far field
    "wsgl": lambda: solve_corrected_wsgl(two_term_ml_problem(0.5), 2.0**-12, (0.5, 1.0)).values,
    "l1": lambda: solve_l1(nonlinear_cubic_problem(0.2, 0.1), 10.0 * 2.0**-12).values,
    "trapezoidal": lambda: solve_trapezoidal(nonlinear_cubic_problem(0.2, 0.1), 10.0 * 2.0**-12).values,
    "subdiffusion": lambda: solve_subdiffusion(subdiffusion_forced_problem(), 2.0**-10, (0.75, 1.0)).u,
    "subdiffusion_l1": lambda: solve_subdiffusion_l1_baseline(subdiffusion_forced_problem(), 2.0**-10).u,
    "wave": lambda: solve_wave(wave_forced_problem(0.5), 2.0**-9, (2.0, 2.5, 3.0), 2, 3, 2).u,
}


@pytest.mark.parametrize("solver", SOLVES)
def test_march_matches_direct_sum_march(solver, monkeypatch):
    # the scalar steps stop Newton at 1e-13, so a rounding change in the
    # known part can move a nonlinear march by up to about that much
    fast = SOLVES[solver]()
    monkeypatch.setattr(fode, "History", DirectHistory)
    monkeypatch.setattr(tfpde, "History", DirectHistory)
    direct = SOLVES[solver]()
    assert np.max(np.abs(fast - direct)) <= 1e-13 * np.max(np.abs(direct))


def _kept_inverses(monkeypatch) -> list:
    """(key, inverse) of every run inverse that the study store hands out, with
    a fresh build of it, made beside the store."""
    kept, value = [], memory.study_value

    def keeping(key, build, *fits):
        got = value(key, build, *fits)
        if got.ndim == 3:  # a run inverse; the tau-free tables are 2-D
            kept.append((key, got, build()))
        return got

    monkeypatch.setattr(memory, "study_value", keeping)
    monkeypatch.setattr(tfpde, "study_value", keeping)
    return kept


MEMO_MESH = SpectralMesh([-1.0, 0.0, 1.0], (6, 6))
MEMO_SOLVES = [  # two cells per march at one tau, which differ in their corrections only
    lambda m: solve_wave(wave_forced_problem(0.5, MEMO_MESH), 2.0**-5, (2.0, 2.5), m, m, m).u,
    lambda m: solve_subdiffusion(subdiffusion_forced_problem(MEMO_MESH), 2.0**-5, (0.75, 1.0)[:m]).u,
    lambda m: solve_corrected_wsgl(two_term_ml_problem(0.5), 2.0**-6, (0.5, 1.0)[:m]).values,
]


def test_study_keeps_each_run_inverse_once_read_only_as_first_columns(monkeypatch):
    # every cell at one tau and kernel used to build its run inverse again
    outside = [solve(m) for solve in MEMO_SOLVES for m in (0, 2)]
    kept = _kept_inverses(monkeypatch)
    with memory.study_tables():
        inside = [solve(m) for solve in MEMO_SOLVES for m in (0, 2)]
    assert all(np.array_equal(a, b) for a, b in zip(inside, outside))
    keys = [key for key, *_ in kept]
    assert len(keys) == 6 and len(set(keys)) == 3 and keys[0::2] == keys[1::2]
    for key, got, fresh in kept:
        assert np.array_equal(got, fresh) and not got.flags.writeable
        assert got.base.shape == (len(got), 2 * memory.RUN - 1)  # its first columns, nothing dense
    assert kept[0][1] is kept[1][1]


def test_l1_and_wsgl_at_one_tau_keep_different_inverses(monkeypatch):
    problem = subdiffusion_forced_problem(MEMO_MESH)
    kept = _kept_inverses(monkeypatch)
    with memory.study_tables():
        solve_subdiffusion_l1_baseline(problem, 2.0**-5)
        solve_subdiffusion(problem, 2.0**-5, (0.75,))
    (l1_key, l1, _), (wsgl_key, wsgl, _) = kept
    assert l1_key != wsgl_key and not np.array_equal(l1, wsgl)


def test_nothing_is_kept_outside_a_study(monkeypatch):
    built, build = [], memory.run_inverse
    monkeypatch.setattr(memory, "run_inverse", lambda *args, **kw: built.append(1) or build(*args, **kw))
    monkeypatch.setattr(tfpde, "run_inverse", memory.run_inverse)
    for solve in MEMO_SOLVES:
        del built[:]
        solve(0), solve(0)
        with memory.study_tables():
            solve(0), solve(0)
        solve(0)
        assert len(built) == 4  # two outside, one inside, and one after the scope dropped it
    assert memory.study_value("k", lambda: np.zeros(2)).flags.writeable
