"""Acceptance suite: reproduces the published convergence tables and the
qualitative operator behavior at their stated tolerances.  One pass/fail line
prints per criterion (run with -s to watch them)."""

import math
import warnings

import numpy as np
import pytest

from fracstep.corrections import CorrectionSet, starting_weight_table, vandermonde_diagnostics
from fracstep.fode import MultiTermProblem, SolverConfig, error_report, solve_corrected_wsgl
from fracstep.glweights import gl_weights, rl_deriv_power, wsgl_weights
from fracstep.problems import (
    subdiffusion_forced_problem,
    two_term_ml_exact,
    two_term_ml_problem,
    wave_forced_problem,
    wave_smooth_exact,
    wave_smooth_problem,
)
from fracstep.sem import lgl_nodes
from fracstep.tfpde import (
    l2_error,
    solve_subdiffusion,
    solve_subdiffusion_l1_baseline,
    solve_wave,
)


def _report(name: str, checks: list[tuple[bool, str]]):
    ok = all(flag for flag, _ in checks)
    print(f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}")
    for flag, msg in checks:
        if not flag:
            print(f"  failed: {msg}")
    assert ok, f"{name}: " + "; ".join(msg for flag, msg in checks if not flag)


def _within(value: float, target: float, rel: float) -> bool:
    return abs(value - target) <= rel * abs(target)


# ---------------------------------------------------------------------------
# shared solve fixtures


@pytest.fixture(scope="module")
def ml_exact_grid_half():
    """Exact two-term solution for alpha = 0.5 on the 2^-12 grid."""
    return two_term_ml_exact(0.5)(np.arange(2**12 + 1) / 2**12)


@pytest.fixture(scope="module")
def ml_exact_grid_tenth():
    return two_term_ml_exact(0.1)(np.arange(2**12 + 1) / 2**12)


def _solve_two_term(alpha, tau, sigmas):
    prob = two_term_ml_problem(alpha)
    cset = CorrectionSet(tuple(sigmas))
    return solve_corrected_wsgl(prob, SolverConfig(tau=tau, corrections=cset))


@pytest.fixture(scope="module")
def alpha_half_table(ml_exact_grid_half):
    """Errors of the alpha = 0.5 study: sigma_k = (k+1) alpha, m = 0..3,
    tau = 2^-8..2^-12; max and final norms."""
    taus = [2.0**-p for p in range(8, 13)]
    out = {}
    for m in range(4):
        sig = [(k + 1) * 0.5 for k in range(1, m + 1)]
        maxes, finals = [], []
        for p, tau in zip(range(8, 13), taus):
            path = _solve_two_term(0.5, tau, sig)
            exact = ml_exact_grid_half[:: 2 ** (12 - p)]
            e = np.abs(path.values - exact)
            maxes.append(float(np.max(e)))
            finals.append(float(e[-1]))
        out[m] = {"max": maxes, "final": finals}
    return out


def test_criterion_two_term_max_error_table(alpha_half_table):
    # finest-row max error for three corrections, plus per-column orders
    checks = []
    e = alpha_half_table[3]["max"][-1]
    checks.append((_within(e, 5.0336e-9, 0.20), f"m=3 finest max error {e:.4e} vs 5.0336e-9 +-20%"))
    expected_orders = {0: 0.97, 1: 1.46, 2: 1.96, 3: 1.95}
    for m, target in expected_orders.items():
        errs = alpha_half_table[m]["max"]
        order = math.log2(errs[-2] / errs[-1])
        checks.append(
            (abs(order - target) <= 0.05, f"m={m} finest max-order {order:.3f} vs {target} +-0.05")
        )
    _report("two-term FODE max-error table (alpha=1/2)", checks)


def test_criterion_two_term_final_error_table(alpha_half_table):
    errs = alpha_half_table[2]["final"]
    order = math.log2(errs[-2] / errs[-1])
    e0 = alpha_half_table[0]["final"]
    order0 = math.log2(e0[-2] / e0[-1])
    checks = [
        (_within(errs[-1], 7.9342e-10, 0.25), f"m=2 final error {errs[-1]:.4e} vs 7.9342e-10 +-25%"),
        (abs(order - 1.97) <= 0.05, f"m=2 final-error order {order:.3f} vs 1.97 +-0.05"),
        (_within(e0[-1], 1.4620e-5, 0.20), f"m=0 final error {e0[-1]:.4e} vs 1.4620e-5 +-20%"),
        (abs(order0 - 1.00) <= 0.05, f"m=0 final-error order {order0:.3f} vs 1.00 +-0.05"),
    ]
    _report("two-term FODE final-time error (alpha=1/2, m=2)", checks)


def test_criterion_shifted_sigma_trend(ml_exact_grid_tenth):
    # alpha = 0.1 with deliberately shifted correction exponents
    # sigma_k = (k+1) alpha + 0.05: errors fall monotonically in m at every
    # step size and the finest (m=6) final error lands on the published value
    checks = []
    finals_by_tau = []
    for p in range(8, 13):
        tau = 2.0**-p
        exact = ml_exact_grid_tenth[:: 2 ** (12 - p)]
        maxes, finals = [], []
        for m in range(7):
            sig = [(k + 1) * 0.1 + 0.05 for k in range(1, m + 1)]
            path = _solve_two_term(0.1, tau, sig)
            e = np.abs(path.values - exact)
            maxes.append(float(np.max(e)))
            finals.append(float(e[-1]))
        finals_by_tau.append(finals)
        checks.append(
            (
                all(b < a for a, b in zip(maxes, maxes[1:])),
                f"max errors not strictly decreasing in m at tau=2^-{p}: {maxes}",
            )
        )
        checks.append(
            (
                all(b < a for a, b in zip(finals, finals[1:])),
                f"final errors not strictly decreasing in m at tau=2^-{p}: {finals}",
            )
        )
    e = finals_by_tau[-1][6]
    checks.append((_within(e, 7.2870e-10, 0.30), f"m=6 finest final error {e:.4e} vs 7.2870e-10 +-30%"))
    _report("shifted-exponent correction trend (alpha=0.1)", checks)


def test_criterion_average_error_orders(ml_exact_grid_tenth):
    targets = {0: 0.62, 1: 0.69, 3: 0.82, 5: 0.96}
    checks = []
    for m, target in targets.items():
        sig = [(k + 1) * 0.1 for k in range(1, m + 1)]
        avgs = []
        for p in (11, 12):
            tau = 2.0**-p
            path = _solve_two_term(0.1, tau, sig)
            exact = ml_exact_grid_tenth[:: 2 ** (12 - p)]
            e = path.values - exact
            avgs.append(math.sqrt(tau * float(np.sum(e[1:] ** 2))))
        order = math.log2(avgs[0] / avgs[1])
        checks.append(
            (abs(order - target) <= 0.1, f"m={m} average-error order {order:.3f} vs {target} +-0.1")
        )
        if m == 5:
            checks.append(
                (
                    _within(avgs[1], 1.4107e-9, 0.20),
                    f"m=5 finest average error {avgs[1]:.4e} vs 1.4107e-9 +-20%",
                )
            )
    _report("average-error orders (alpha=0.1)", checks)


def test_criterion_vandermonde_diagnostics():
    cond = vandermonde_diagnostics(0.1, CorrectionSet((0.1, 0.2, 0.3))).condition_number
    resid = vandermonde_diagnostics(0.3, CorrectionSet((0.3, 0.6, 0.9))).max_residual
    checks = [
        (3.20e3 / 3.0 <= cond <= 3.20e3 * 3.0, f"condition {cond:.3e} vs 3.20e3 within factor 3"),
        (resid <= 1e-12, f"residual {resid:.3e} <= 1e-12"),
    ]
    _report("starting-weight system diagnostics", checks)


def test_criterion_wave_smooth_orders():
    # manufactured smooth diffusion-wave study (memory coefficient 2, the
    # configuration the published numbers correspond to)
    U = wave_smooth_exact()
    checks = []
    for alpha, target in ((0.2, 2.00), (0.5, 1.99), (0.9, 1.98)):
        prob = wave_smooth_problem(alpha)
        errs = [l2_error(solve_wave(prob, 2.0**-p, (2.0, 3.0), 0, 0, 2), U) for p in (8, 9)]
        order = math.log2(errs[0] / errs[1])
        checks.append(
            (
                abs(order - target) <= 0.05,
                f"m3=2 alpha={alpha} order {order:.3f} vs {target} +-0.05",
            )
        )
    prob = wave_smooth_problem(0.9)
    errs = [l2_error(solve_wave(prob, 2.0**-p), U) for p in (8, 9)]
    order = math.log2(errs[0] / errs[1])
    checks.append((abs(order - 1.11) <= 0.1, f"m3=0 alpha=0.9 order {order:.3f} vs 1.11 +-0.1"))
    _report("diffusion-wave smooth-solution orders", checks)


def test_criterion_wave_forced_self_reference():
    # forced zero-data diffusion-wave problem, alpha = 1/2, two corrections,
    # self-referenced at tau = 2^-11.
    #
    # "Two corrections" means the first two solution exponents, sigma = 2 and
    # 2.5, are corrected in every operator and no identity ends up less exact
    # than its uncorrected form.  The uncorrected averaged V-difference (the
    # trapezoid rule for V_t) is already exact on V ~ t and t^2.  Its m2
    # weights use the exponents sigma_r - 1, so m2 = 2 fits them to (1, 1.5)
    # and drops the native t^2: d1_v_weight_table gives sum_r w_{n,r} r^2 =
    # -0.043 at n = 1, not 0.  m2 = 3, exponents (1, 1.5, 2), keeps it
    # (sum <= 1.4e-17).  The U-identity at m1 = 2, exponents (2, 2.5), keeps
    # its native t^2, and the memory term has no native exactness to lose.
    # That gives (m1, m2, m3) = (2, 3, 2); tests/test_corrections.py pins
    # these facts.
    #
    # At (2, 2, 2) the errors are 1.133e-5, 3.556e-6, 9.864e-7, 2.569e-7,
    # 6.278e-8 with orders 1.67, 1.85, 1.94, 2.03.  Their gap to the
    # published rows, 1.96e-5 ... 5.7e-9, shrinks 7.5-7.9x per halving of
    # tau: a third-order component, and the step from m2 = 2 to m2 = 3
    # accounts for 82-85% of it.  (2, 3, 2) gives 2.749e-5, 5.748e-6,
    # 1.276e-6, 2.944e-7, 6.754e-8 (-11% ... -1% off the published rows),
    # orders 2.26, 2.17, 2.12, 2.12.  (3, 2, 2) also lands within the bounds
    # (-11% ... -0.5%), but its V-identity still loses t^2 and no
    # exactness rule supports it, so it is not used.  The paper's own counts
    # for this table are not recorded in this repository.
    prob = wave_forced_problem(0.5)
    sig = tuple((3 + k) * 0.5 for k in range(1, 4))
    counts = (2, 3, 2)
    ref = solve_wave(prob, 2.0**-11, sig, *counts)
    errs = [
        l2_error(solve_wave(prob, 2.0**-p, sig, *counts), ref) for p in range(5, 10)
    ]
    expected = [3.0941e-5, 6.1603e-6, 1.3292e-6, 3.0150e-7, 6.8463e-8]
    expected_orders = [2.32, 2.21, 2.14, 2.13]
    checks = []
    for e, target, p in zip(errs, expected, range(5, 10)):
        checks.append(
            (_within(e, target, 0.30), f"tau=2^-{p} error {e:.4e} vs {target:.4e} +-30%")
        )
    for i, target in enumerate(expected_orders):
        order = math.log2(errs[i] / errs[i + 1])
        checks.append(
            (abs(order - target) <= 0.15, f"order[{i}] {order:.3f} vs {target} +-0.15")
        )
    _report("diffusion-wave forced-problem self-reference table", checks)


def test_criterion_subdiffusion_table():
    prob = subdiffusion_forced_problem()
    sig = tuple((2 + k) / 4 for k in range(1, 5))
    taus = [2.0**-p for p in (9, 10, 11)]
    ref_c = solve_subdiffusion(prob, 2.0**-13, sig, 3, 3)
    ref_l1 = solve_subdiffusion_l1_baseline(prob, 2.0**-13)
    e_c = [l2_error(solve_subdiffusion(prob, t, sig, 3, 3), ref_c, at="average") for t in taus]
    e_l1 = [l2_error(solve_subdiffusion_l1_baseline(prob, t), ref_l1, at="average") for t in taus]
    o_c = [math.log2(e_c[i] / e_c[i + 1]) for i in range(2)]
    o_l1 = [math.log2(e_l1[i] / e_l1[i + 1]) for i in range(2)]
    checks = [
        (0.95 <= o_l1[-1] <= 1.25, f"L1 finest order {o_l1[-1]:.3f} vs 1.0-1.2"),
        (all(o >= 2.2 for o in o_c), f"corrected m=3 orders {o_c} >= 2.2"),
        (_within(e_c[1], 1.2301e-7, 0.30), f"m=3 error@2^-10 {e_c[1]:.4e} vs 1.2301e-7 +-30%"),
        (_within(e_c[2], 2.3307e-8, 0.30), f"m=3 error@2^-11 {e_c[2]:.4e} vs 2.3307e-8 +-30%"),
        (_within(e_l1[2], 3.7468e-5, 0.30), f"L1 error@2^-11 {e_l1[2]:.4e} vs 3.7468e-5 +-30%"),
    ]
    _report("subdiffusion corrected-vs-L1 table", checks)


def test_criterion_property_suite():
    checks = []
    # WSGL weights at order one collapse to BDF2
    g = wsgl_weights(1.0, 40)
    bdf2 = np.zeros(41)
    bdf2[:3] = [1.5, -2.0, 0.5]
    checks.append((float(np.max(np.abs(g - bdf2))) <= 1e-15, "alpha=1 WSGL = BDF2 weights"))

    # corrected-operator exactness on the corrected powers
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for alpha, m in ((0.3, 8), (0.5, 6), (0.7, 4)):
            cset = CorrectionSet(tuple(k * alpha for k in range(1, m + 1)))
            gt = wsgl_weights(alpha, 100)
            W = starting_weight_table(alpha, cset, 100)
            ks = np.arange(101, dtype=float)
            worst = 0.0
            for s in cset.sigmas:
                U = ks**s
                vals = np.convolve(gt, U)[:101] + W @ U[1 : m + 1]
                exact = np.array([rl_deriv_power(alpha, s, n) for n in ks[1:]])
                rel = np.abs(vals[1:] - exact) / np.maximum(1.0, np.abs(exact))
                worst = max(worst, float(rel.max()))
            checks.append(
                (worst <= 1e-9, f"exactness defect {worst:.2e} (alpha={alpha}, m={m}) <= 1e-9")
            )

    # first-order error-term cancellation of the shifted GL formula
    from fracstep.specfun import gamma as _gamma
    from oracles import apply_shifted_gl, sample

    for alpha, sigma, q in ((0.3, 1.5, 0), (0.7, 2.5, -1), (0.3, 1.5, 1)):
        resid = []
        for p in (8, 9, 10):
            tau = 2.0**-p
            n = int(round(1.0 / tau))
            path = sample(lambda t: t**sigma, tau, (n + 1) * tau)
            B = apply_shifted_gl(path, alpha, q, n)
            corr = tau * (q - alpha / 2.0) * _gamma(sigma + 1.0) / _gamma(sigma - alpha)
            resid.append(abs(B - rl_deriv_power(alpha, sigma, 1.0) - corr))
        orders = [math.log2(resid[i] / resid[i + 1]) for i in range(2)]
        checks.append(
            (
                all(1.8 <= o <= 2.2 for o in orders),
                f"leading-error cancellation orders {orders} in [1.8, 2.2]",
            )
        )

    # LGL closed forms
    x2, w2 = lgl_nodes(2)
    x4, w4 = lgl_nodes(4)
    r = math.sqrt(3.0 / 7.0)
    ok2 = np.allclose(x2, [-1, 0, 1], atol=1e-14) and np.allclose(
        w2, [1 / 3, 4 / 3, 1 / 3], atol=1e-14
    )
    ok4 = np.allclose(x4, [-1, -r, 0, r, 1], atol=1e-14) and np.allclose(
        w4, [0.1, 49 / 90, 32 / 45, 49 / 90, 0.1], atol=1e-14
    )
    checks.append((ok2 and ok4, "LGL closed-form nodes/weights (N=2,4)"))

    # zero data stays zero across the solvers
    prob = MultiTermProblem((1.0, 1.0), (0.7, 0.3), lambda t, y: 0.0, 0.0, 1.0)
    p1 = solve_corrected_wsgl(prob, SolverConfig(tau=2.0**-5, corrections=CorrectionSet((0.7, 1.0))))
    sub = subdiffusion_forced_problem()
    zero_sub = solve_subdiffusion(
        type(sub)(sub.alpha1, sub.alpha2, sub.nu, sub.mu, lambda x, t: np.zeros_like(x), sub.phi0, sub.T, sub.mesh),
        2.0**-4,
        (0.75, 1.0),
        2,
        2,
    )
    wv = wave_forced_problem(0.5)
    zero_wave = solve_wave(
        type(wv)(wv.nu, wv.mu, lambda x, t: np.zeros_like(x), wv.phi0, wv.psi0, wv.alpha, wv.T, wv.mesh),
        2.0**-4,
        tuple((3 + k) * 0.5 for k in range(1, 3)),
        2,
        2,
        2,
    )
    checks.append(
        (
            np.all(p1.values == 0.0) and np.all(zero_sub.u == 0.0) and np.all(zero_wave.u == 0.0),
            "zero-data solvers return identically zero",
        )
    )

    # linear-decay stability: monotone after the startup block
    mono = True
    for lam in (1.0, 10.0, 100.0):
        for alpha in (0.3, 0.5, 0.7):
            for p in (4, 7, 10):
                for m in (0, 2):
                    prob = MultiTermProblem(
                        (1.0,), (alpha,), lambda t, y, lam=lam: -lam * y, 1.0, 1.0
                    )
                    cs = CorrectionSet(tuple(k * alpha for k in range(1, m + 1)))
                    path = solve_corrected_wsgl(prob, SolverConfig(tau=2.0**-p, corrections=cs))
                    y = np.abs(path.values)
                    if not (np.all(y <= 1.0 + 1e-12) and np.all(np.diff(y[m + 1 :]) <= 1e-14)):
                        mono = False
    # bounded (not monotone) in the oscillatory corner
    prob = MultiTermProblem((1.0,), (0.9,), lambda t, y: -100.0 * y, 1.0, 1.0)
    path = solve_corrected_wsgl(prob, SolverConfig(tau=2.0**-4))
    bounded = bool(np.all(np.abs(path.values) <= 1.0 + 1e-12))
    checks.append((mono and bounded, "linear-decay paths monotone (bounded at alpha=0.9)"))

    _report("operator and solver property suite", checks)


def test_criterion_pointwise_operator_improvement():
    # low-regularity power, very small order: six corrections push the
    # pointwise quadrature error below 1e-7 away from the origin and beat the
    # single-correction operator by at least 10x
    alpha = 0.05
    tau = 1e-3
    n_t = 1000
    t = np.arange(n_t + 1) * tau
    U = t ** (8 * alpha)
    gt = wsgl_weights(alpha, n_t)
    exact = np.zeros(n_t + 1)
    exact[1:] = rl_deriv_power(alpha, 8 * alpha, 1.0) * t[1:] ** (7 * alpha)
    errs = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for m in (1, 6):
            cset = CorrectionSet(tuple(k * alpha for k in range(1, m + 1)))
            W = starting_weight_table(alpha, cset, n_t)
            vals = tau ** (-alpha) * (np.convolve(gt, U)[: n_t + 1] + W @ U[1 : m + 1])
            errs[m] = float(np.max(np.abs(vals - exact)[t >= 0.2]))
    checks = [
        (errs[6] <= 1e-7, f"m=6 pointwise error {errs[6]:.3e} <= 1e-7 for t >= 0.2"),
        (errs[1] / errs[6] >= 10.0, f"m=1 to m=6 improvement {errs[1] / errs[6]:.1f}x >= 10x"),
    ]
    _report("pointwise operator improvement (alpha=0.05)", checks)
