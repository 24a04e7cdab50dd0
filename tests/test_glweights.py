import math

import numpy as np
import pytest

from fracstep.glweights import SampledPath, gl_weights, l1_weights, rl_deriv_power, wsgl_weights
from fracstep.specfun import gamma
from oracles import apply_shifted_gl, apply_wsgl_pair, sample


def test_gl_weights_alpha_one_is_first_difference():
    np.testing.assert_allclose(gl_weights(1.0, 3), [1.0, -1.0, 0.0, 0.0], atol=0.0)


def test_l1_weights_alpha_one_are_backward_difference():
    # k^(1-alpha) is 0 at k = 0 also at alpha = 1, where 0.0 ** 0.0 is 1
    np.testing.assert_array_equal(l1_weights(1.0, 4, 0.1), [10.0, -10.0, 0.0, 0.0, 0.0])


def test_l1_weights_continuous_at_alpha_one():
    tau = 2.0**-8
    near = l1_weights(1.0 - 1e-12, 1000, tau)
    at = l1_weights(1.0, 1000, tau)
    assert np.max(np.abs(near - at)) <= 1e-9 / tau


def test_gl_weights_examples():
    np.testing.assert_allclose(gl_weights(0.5, 2), [1.0, -0.5, -0.125], rtol=1e-15)
    np.testing.assert_allclose(gl_weights(0.3, 2), [1.0, -0.3, -0.105], rtol=1e-14)


def test_gl_weights_recurrence_and_signs():
    rng = np.random.default_rng(11)
    for alpha in rng.uniform(0.05, 0.99, size=20):
        om = gl_weights(alpha, 50)
        assert om[0] == 1.0
        for k in range(1, 51):
            assert om[k] == pytest.approx((1.0 - (alpha + 1.0) / k) * om[k - 1], rel=1e-15)
        assert om[1] == pytest.approx(-alpha)
        assert np.all(om[1:] < 0)
        assert np.all(np.diff(om[1:]) > 0)  # increasing toward zero


def test_gl_partial_sums_positive_decreasing():
    for alpha in (0.1, 0.5, 0.9):
        sums = np.cumsum(gl_weights(alpha, 400))
        assert np.all(sums > 0)
        assert np.all(np.diff(sums) < 0)


def test_wsgl_weights_examples():
    np.testing.assert_allclose(wsgl_weights(1.0, 2), [1.5, -2.0, 0.5], atol=1e-15)
    np.testing.assert_allclose(wsgl_weights(0.5, 2), [1.25, -0.875, -0.03125], rtol=1e-15)
    np.testing.assert_allclose(wsgl_weights(0.0, 2), [1.0, 0.0, 0.0], atol=0.0)


def test_wsgl_alpha_one_equals_bdf2_weights():
    g = wsgl_weights(1.0, 30)
    expected = np.zeros(31)
    expected[:3] = [1.5, -2.0, 0.5]
    assert np.max(np.abs(g - expected)) <= 1e-15


def test_wsgl_generating_function_convolution_bitwise():
    # convolving the GL series with the two-term factor must rebuild the
    # WSGL weights bit for bit
    rng = np.random.default_rng(101)
    for alpha in rng.uniform(1e-6, 1.0, size=100):
        K = 64
        om = gl_weights(alpha, K)
        factor = np.array([(2.0 + alpha) / 2.0, -alpha / 2.0])
        conv = np.convolve(om, factor)[: K + 1]
        g = wsgl_weights(alpha, K)
        assert np.array_equal(conv, g)
        # a longer table is a bitwise extension of a shorter one
        assert np.array_equal(wsgl_weights(alpha, 4 * K)[: K + 1], g)


def test_apply_shifted_gl_constant_path():
    path = SampledPath(0.25, np.ones(5))
    val = apply_shifted_gl(path, 0.5, 0, 4)
    assert val == pytest.approx(0.546875, rel=1e-14)  # 2 * sum of first five weights


def test_apply_shifted_gl_linear_alpha_one():
    tau = 0.125
    path = sample(lambda t: t, tau, 1.0)
    for n in (1, 4, 8):
        assert apply_shifted_gl(path, 1.0, 0, n) == pytest.approx(1.0, rel=1e-12)


def test_apply_shifted_gl_zero_path():
    path = SampledPath(0.1, np.zeros(11))
    assert apply_shifted_gl(path, 0.4, 0, 5) == 0.0


def test_apply_shifted_gl_index_errors():
    path = SampledPath(0.1, np.zeros(11))
    with pytest.raises(IndexError):
        apply_shifted_gl(path, 0.4, 1, 10)  # n + q past the samples
    with pytest.raises(ValueError):
        apply_shifted_gl(path, 0.4, -2, 1)  # n < |q|


def test_apply_wsgl_pair_invalid_shifts():
    path = SampledPath(0.1, np.zeros(11))
    with pytest.raises(ValueError):
        apply_wsgl_pair(path, 0.5, 1, 1, 5)


def test_apply_wsgl_pair_matches_g_convolution():
    rng = np.random.default_rng(3)
    tau = 0.05
    vals = rng.normal(size=21)
    vals[0] = 0.0
    path = SampledPath(tau, vals)
    alpha = 0.6
    g = wsgl_weights(alpha, 20)
    for n in (1, 7, 20):
        direct = tau ** (-alpha) * np.dot(g[: n + 1][::-1], vals[: n + 1])
        assert apply_wsgl_pair(path, alpha, 0, -1, n) == pytest.approx(direct, rel=1e-13)


def test_apply_wsgl_pair_power_oracle():
    # t^2.5 at t=1: second-order quadrature against the closed form
    tau = 1.0 / 1024.0
    path = sample(lambda t: t**2.5, tau, 1.0)
    val = apply_wsgl_pair(path, 0.5, 0, -1, 1024)
    exact = rl_deriv_power(0.5, 2.5, 1.0)
    assert exact == pytest.approx(gamma(3.5) / gamma(3.0), rel=1e-15)
    assert abs(val - exact) < 2e-5


def test_apply_wsgl_pair_zero_path():
    path = SampledPath(0.1, np.zeros(11))
    assert apply_wsgl_pair(path, 0.5, 0, -1, 6) == 0.0


def test_wsgl_alpha_one_exact_on_quadratic():
    tau = 2.0**-6
    T = 1.0
    path = sample(lambda t: t * t, tau, T)
    val = apply_wsgl_pair(path, 1.0, 0, -1, path.n_steps)
    assert val == pytest.approx(2.0 * T, rel=1e-12)  # BDF2 exact for quadratics


def test_rl_deriv_power_examples():
    assert rl_deriv_power(0.5, 1.0, 1.0) == pytest.approx(1.1283791671, rel=1e-10)
    assert rl_deriv_power(0.5, 0.5, 1.0) == pytest.approx(gamma(1.5), rel=1e-15)
    # derivative of a constant is nonzero: 1/Gamma(0.7) * 2^-0.3
    expected = 1.0 / gamma(0.7) * 2.0**-0.3
    assert rl_deriv_power(0.3, 0.0, 2.0) == pytest.approx(expected, rel=1e-14)


@pytest.mark.parametrize("sigma", [1.0, 1.5, 2.5])
@pytest.mark.parametrize("alpha", [0.3, 0.7])
@pytest.mark.parametrize("q", [-1, 0, 1])
def test_shifted_gl_leading_error_cancellation(sigma, alpha, q):
    # subtracting the first-order term of the error expansion leaves O(tau^2)
    # at fixed t = 1
    resid = []
    for p in (8, 9, 10):
        tau = 2.0**-p
        n = int(round(1.0 / tau))
        path = sample(lambda t: t**sigma, tau, (n + 1) * tau)
        B = apply_shifted_gl(path, alpha, q, n)
        correction = tau * (q - alpha / 2.0) * gamma(sigma + 1.0) / gamma(sigma - alpha)
        resid.append(abs(B - rl_deriv_power(alpha, sigma, 1.0) - correction))
    orders = [math.log2(resid[i] / resid[i + 1]) for i in range(2)]
    for order in orders:
        assert 1.8 <= order <= 2.2
