import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from fracstep.corrections import (
    CorrectionSet,
    _fractional_rhs,
    d1_u_weight_table,
    d1_v_weight_table,
    shared_table,
    starting_weight_table,
    study_tables,
    vandermonde_diagnostics,
)
from fracstep.glweights import rl_deriv_power, wsgl_weights
from fracstep.specfun import gamma
from oracles import (
    apply_wsgl_pair,
    corrected_wsgl_apply,
    d1_weights_step,
    s_factor,
    sample,
    starting_weights_step,
)


def test_correction_set_validation():
    with pytest.raises(ValueError):
        CorrectionSet((0.5, 0.5))
    with pytest.raises(ValueError):
        CorrectionSet((0.5, 0.2))
    with pytest.raises(ValueError):
        CorrectionSet((-0.1, 0.5))
    with pytest.raises(ValueError):
        CorrectionSet(tuple(0.1 * k for k in range(1, 12)))  # m > 10
    assert CorrectionSet((0.5, 1.0)).m == 2


def test_single_unknown_starting_weight():
    # m = 1, sigma = alpha = 0.5, n = 1: w = Gamma(1.5) - g_0
    w = starting_weight_table(0.5, CorrectionSet((0.5,)), 4)[1]
    assert w[0] == pytest.approx(gamma(1.5) - 1.25, rel=1e-14)
    assert w[0] == pytest.approx(-0.3637731, abs=1e-7)


def test_batch_table_matches_per_step_rows():
    alpha = 0.4
    cset = CorrectionSet((0.4, 0.8, 1.2))
    W = starting_weight_table(alpha, cset, 64)
    # summation order differs between the batch convolution and the per-step
    # dot; agreement is limited by the system's conditioning
    for n in (1, 2, 17, 64):
        np.testing.assert_allclose(
            W[n], starting_weights_step(alpha, cset, n), rtol=1e-9, atol=1e-12
        )


def _exact_dot(a, b) -> Fraction:
    """sum_k a_k b_k of doubles without rounding: each double is an integer
    over a power of two, so the sum is one integer over the largest."""
    terms = [(p * q, r * t) for (p, r), (q, t) in zip(map(float.as_integer_ratio, a), map(float.as_integer_ratio, b))]
    den = max((d for _, d in terms), default=1)
    return Fraction(sum(num * (den // d) for num, d in terms), den)


@pytest.mark.parametrize("alpha,sigmas", [(0.75, (1.25,)), (0.4, (0.4, 0.8, 1.2))])
def test_fractional_rhs_against_exact_sum(alpha, sigmas):
    # the table's right-hand side, exact - sum_k g_{n-k} k^s, against the
    # same double inputs summed in exact arithmetic: no worse than the
    # direct sum (or a few ulps of the magnitude sum where that is exact),
    # and at 2^15 more than 4x better (measured 6.1x to 14.5x; the FFT
    # nodes round to about eps ||x||_2 ||c||_2, which bounds the gain)
    eps = np.finfo(float).eps
    for n in (5, 100, 2000, 2**15):
        rhs = _fractional_rhs(alpha, sigmas, n)[:, n]
        g = wsgl_weights(alpha, 2 * n)[n::-1]  # g_{n-k}, k = 0..n
        ns = np.arange(n + 1, dtype=float)
        for r, s in enumerate(sigmas):
            kpow = ns**s
            exact = gamma(s + 1.0) / gamma(s + 1.0 - alpha) * float(n) ** (s - alpha)
            want = Fraction(exact) - _exact_dot(g, kpow)
            direct = exact - np.convolve(wsgl_weights(alpha, n), kpow)[n]  # the build this replaced
            err, err_direct = abs(Fraction(rhs[r]) - want), abs(Fraction(direct) - want)
            assert err <= max(err_direct, 8 * eps * float(np.abs(g) @ kpow)), (n, s, float(err), float(err_direct))
            if n == 2**15:
                assert 4 * err <= err_direct, (s, float(err), float(err_direct))


def test_table_rows_do_not_depend_on_its_length():
    # row n reads only node sizes L <= n and the weights to lag 2L - 1, so a
    # shorter table is a bitwise prefix of a longer one; a d1 row reads n alone
    cset = CorrectionSet((0.3, 0.6, 0.9))
    np.testing.assert_array_equal(
        starting_weight_table(0.3, cset, 640), starting_weight_table(0.3, cset, 5120)[:641]
    )
    wave = CorrectionSet((2.0, 2.5, 3.0))
    for table in (d1_u_weight_table, d1_v_weight_table):
        np.testing.assert_array_equal(table(wave, 3, 640), table(wave, 3, 5120)[:641])


def test_study_tables_hand_out_prefixes_of_one_table():
    cset = CorrectionSet((0.3, 0.6))
    built = []

    def build(n):
        built.append(n)
        return np.arange(n + 1.0)

    with study_tables():
        long = starting_weight_table(0.3, cset, 300)
        short = starting_weight_table(0.3, cset, 100)
        assert np.shares_memory(long, short) and not short.flags.writeable
        np.testing.assert_array_equal(short, long[:101])
        assert [len(shared_table("k", n, build)) for n in (5, 3, 8, 2)] == [6, 4, 9, 3]
        assert built == [5, 8]  # a longer request builds anew and is kept
    assert shared_table("k", 3, build).flags.writeable and built == [5, 8, 3]
    assert starting_weight_table(0.3, cset, 100).flags.writeable


def test_bdf2_starting_weight_decay():
    # alpha = 1 reduces to BDF2, so the single starting weight must fall off
    # like n^(sigma-3)
    sigma = 0.8
    W = starting_weight_table(1.0, CorrectionSet((sigma,)), 300)
    ns = np.arange(8, 257)
    ratios = np.abs(W[8:257, 0]) / ns ** (sigma - 3.0)
    assert np.all(np.abs(W[9:257, 0]) < np.abs(W[8:256, 0]))
    assert ratios.max() <= 2.0 * ratios[:8].max()


@pytest.mark.parametrize("alpha,m", [(0.3, 3), (0.3, 7), (0.3, 8), (0.5, 5), (0.7, 4)])
def test_corrected_operator_exactness(alpha, m):
    # the corrected operator reproduces the closed-form derivative of each
    # corrected power, up to the linear-system residual (relative to the
    # derivative scale, which grows like n^(sigma - alpha))
    cset = CorrectionSet(tuple(k * alpha for k in range(1, m + 1)))
    g = wsgl_weights(alpha, 100)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        W = starting_weight_table(alpha, cset, 100)
    ks = np.arange(101, dtype=float)
    for s in cset.sigmas:
        U = ks**s
        vals = np.convolve(g, U)[:101] + W @ U[1 : m + 1]
        exact = np.array([rl_deriv_power(alpha, s, n) for n in ks[1:]])
        rel = np.abs(vals[1:] - exact) / np.maximum(1.0, np.abs(exact))
        assert rel.max() <= 1e-9


def test_starting_weight_decay_rate():
    # rows decay like the sum of n^(sigma_k - 2 - alpha) tails
    alpha = 0.5
    cset = CorrectionSet((0.5, 1.0, 1.5))
    W = starting_weight_table(alpha, cset, 300)
    ns = np.arange(16, 257, dtype=float)
    bound = sum(ns ** (s - 2.0 - alpha) for s in cset.sigmas)
    for r in range(cset.m):
        ratios = np.abs(W[16:257, r]) / bound
        assert ratios.max() <= 2.0 * max(ratios[0], ratios.mean())


def test_d1_u_exact_for_matching_powers():
    cset2 = CorrectionSet((2.0,))
    cset1 = CorrectionSet((1.0,))
    for n in (1, 4, 9):
        assert d1_u_weight_table(cset2, 1, n)[n, 0] == pytest.approx(0.0, abs=1e-13)
        assert d1_u_weight_table(cset1, 1, n)[n, 0] == pytest.approx(0.0, abs=1e-13)


def test_d1_u_rejects_sigma_below_one():
    # row 0 holds 0^(sigma - 1), which is inf for sigma < 1
    with pytest.raises(ValueError, match=r"sigma_r >= 1.*0\.5"):
        d1_u_weight_table(CorrectionSet((0.5,)), 1, 3)
    with pytest.raises(ValueError, match="sigma_r >= 1"):
        d1_u_weight_table(CorrectionSet((0.5, 2.0)), 2, 3)
    assert np.all(np.isfinite(d1_u_weight_table(CorrectionSet((1.0, 2.0)), 2, 3)))


def test_d1_u_fractional_power_value():
    # direct arithmetic oracle for sigma = 2.5, n = 4
    expected = 1.25 * (5.0**1.5 + 4.0**1.5) - (5.0**2.5 - 4.0**2.5)
    w = d1_u_weight_table(CorrectionSet((2.5,)), 1, 4)[4]
    assert w[0] == pytest.approx(expected, rel=1e-13)


def test_d1_v_exact_for_matching_powers():
    for sigma in (3.0, 2.0):  # effective exponents 2 and 1
        w = d1_v_weight_table(CorrectionSet((sigma,)), 1, 5)[5]
        assert w[0] == pytest.approx(0.0, abs=1e-13)


def test_d1_v_fractional_power_value():
    # sigma = 3.5 acts at exponent 2.5; same arithmetic as the u-variant
    s = 2.5
    n = 4
    expected = s / 2.0 * ((n + 1.0) ** (s - 1.0) + n ** (s - 1.0)) - ((n + 1.0) ** s - n**s)
    w = d1_v_weight_table(CorrectionSet((3.5,)), 1, n)[n]
    assert w[0] == pytest.approx(expected, rel=1e-13)


def test_d1_tables_match_rows():
    cset = CorrectionSet((2.0, 2.5, 3.5))
    Wu = d1_u_weight_table(cset, 3, 20)
    Wv = d1_v_weight_table(cset, 2, 20)
    for n in (0, 3, 20):
        np.testing.assert_allclose(Wu[n], d1_weights_step((2.0, 2.5, 3.5), n), atol=1e-14)
        np.testing.assert_allclose(Wv[n], d1_weights_step((1.0, 1.5), n), atol=1e-14)


def test_d1_corrections_keep_native_t2_exactness():
    # The uncorrected averaged differences are exact on t^2; a correction row
    # keeps that only if it annihilates k^2.  For the forced-wave exponents
    # the V-identity needs m2 = 3 (exponents 1, 1.5, 2), the U-identity keeps
    # it at m1 = 2 (exponents 2, 2.5).
    cset = CorrectionSet((2.0, 2.5, 3.0))
    n_max = 64
    k = np.arange(1, 4, dtype=float)
    assert np.max(np.abs(d1_v_weight_table(cset, 3, n_max) @ k**2)) <= 1e-14
    assert np.max(np.abs(d1_v_weight_table(cset, 2, n_max) @ k[:2] ** 2)) > 1e-2
    assert np.max(np.abs(d1_u_weight_table(cset, 2, n_max) @ k[:2] ** 2)) <= 1e-14


def test_corrected_apply_empty_set_is_plain_operator():
    path = sample(lambda t: t**1.7, 0.05, 1.0)
    empty = CorrectionSet(())
    for n in (1, 5, 20):
        assert corrected_wsgl_apply(path, 0.5, empty, n) == apply_wsgl_pair(path, 0.5, 0, -1, n)


def test_corrected_apply_reproduces_power_derivative():
    alpha = 0.5
    cset = CorrectionSet((0.5, 1.0))
    tau = 0.02
    path = sample(lambda t: t**0.5, tau, 1.0)
    for n in (2, 10, 50):
        val = corrected_wsgl_apply(path, alpha, cset, n)
        exact = rl_deriv_power(alpha, 0.5, n * tau)
        assert val == pytest.approx(exact, rel=1e-10, abs=1e-10 * tau**-alpha)


def _operator_error_profile(alpha, m, tau, n_t, exponent):
    t = np.arange(n_t + 1) * tau
    U = t**exponent
    vals = tau ** (-alpha) * np.convolve(wsgl_weights(alpha, n_t), U)[: n_t + 1]
    if m:
        cset = CorrectionSet(tuple(k * alpha for k in range(1, m + 1)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            W = starting_weight_table(alpha, cset, n_t)
        vals = vals + tau ** (-alpha) * (W @ U[1 : m + 1])
    exact = np.zeros(n_t + 1)
    exact[1:] = rl_deriv_power(alpha, exponent, 1.0) * t[1:] ** (exponent - alpha)
    return t, np.abs(vals - exact)


def test_low_order_power_correction_progression():
    # alpha = 0.05, U = t^(8 alpha): pointwise error away from the origin
    # drops sharply with the number of corrections
    alpha = 0.05
    tau = 1e-3
    errs = {}
    for m in (1, 6):
        t, err = _operator_error_profile(alpha, m, tau, 1000, 8 * alpha)
        errs[m] = err[t >= 0.2].max()
    assert errs[6] <= 1e-7
    assert errs[1] / errs[6] >= 10.0


def test_error_factor_scaling_matches_s_factor():
    # max pointwise error decreases with m whenever the error factor does
    alpha = 0.05
    tau = 1e-2
    sigma = 8 * alpha
    factors = []
    errors = []
    for m in (1, 3, 5, 6):
        cset = CorrectionSet(tuple(k * alpha for k in range(1, m + 1)))
        factors.append(s_factor(sigma, cset))
        t, err = _operator_error_profile(alpha, m, tau, 100, sigma)
        errors.append(err[t >= 0.2].max())
    assert all(b < a for a, b in zip(factors, factors[1:]))
    assert all(b < a for a, b in zip(errors, errors[1:]))


def test_vandermonde_diagnostics_values():
    diag = vandermonde_diagnostics(0.1, CorrectionSet((0.1, 0.2, 0.3)))
    assert 3.20e3 / 3.0 <= diag.condition_number <= 3.20e3 * 3.0
    diag3 = vandermonde_diagnostics(0.3, CorrectionSet((0.3, 0.6, 0.9)))
    assert diag3.max_residual <= 1e-13


def test_vandermonde_diagnostics_m1_identity():
    diag = vandermonde_diagnostics(0.5, CorrectionSet((0.5,)))
    assert diag.condition_number == pytest.approx(1.0, rel=1e-14)


def test_condition_number_monotone_in_m():
    conds = []
    for m in range(2, 8):
        cset = CorrectionSet(tuple(0.1 * k for k in range(1, m + 1)))
        conds.append(vandermonde_diagnostics(0.1, cset).condition_number)
    assert all(b >= a for a, b in zip(conds, conds[1:]))


def test_ill_conditioning_warning():
    cset = CorrectionSet(tuple(0.05 * k for k in range(1, 9)))  # cond ~ 2e14
    with pytest.warns(UserWarning):
        starting_weight_table(0.05, cset, 4)


def test_s_factor_values():
    cset = CorrectionSet((0.1, 0.2, 0.3))
    assert s_factor(0.8, cset) == pytest.approx(0.21, rel=1e-12)
    assert s_factor(0.2, cset) == 0.0
    assert s_factor(1.3, CorrectionSet(())) == 1.0
