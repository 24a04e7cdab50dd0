import math

import numpy as np
import pytest

from fracstep.specfun import _ML_COND_LIMIT, _series_mp, gamma, mittag_leffler
from oracles import ml_series_scalar


def test_gamma_integer_values():
    assert gamma(1.0) == pytest.approx(1.0, rel=1e-15)
    assert gamma(5.0) == pytest.approx(24.0, rel=1e-15)


def test_gamma_half():
    assert gamma(0.5) == pytest.approx(1.7724538509055160, rel=1e-13)
    assert gamma(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-14)


@pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -7.0])
def test_gamma_pole_errors(x):
    with pytest.raises(ValueError):
        gamma(x)


def test_gamma_overflow():
    with pytest.raises(OverflowError):
        gamma(172.0)


def test_gamma_recurrence_random():
    rng = np.random.default_rng(20240803)
    for x in rng.uniform(0.1, 20.0, size=1000):
        assert gamma(x + 1.0) == pytest.approx(x * gamma(x), rel=1e-12)


def test_gamma_reflection_negative_arguments():
    rng = np.random.default_rng(7)
    xs = rng.uniform(-5.0, 0.0, size=300)
    xs = xs[np.abs(xs - np.round(xs)) > 1e-3]
    for x in xs:
        val = gamma(x) * gamma(1.0 - x) * math.sin(math.pi * x) / math.pi
        assert val == pytest.approx(1.0, rel=1e-10)


def test_ml_at_zero_is_one():
    assert mittag_leffler(0.7, 0.0) == 1.0


def test_ml_alpha_one_is_exp():
    assert mittag_leffler(1.0, 1.0) == pytest.approx(2.718281828459045, rel=1e-13)


def test_ml_half_vs_erfc_oracle():
    # E_{1/2}(z) = exp(z^2) erfc(-z); stdlib erfc is the independent oracle
    expected = math.exp(1.0) * math.erfc(1.0)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(expected, rel=1e-12)
    assert mittag_leffler(0.5, -1.0) == pytest.approx(0.42758357615, rel=1e-10)


def test_ml_matches_exp_on_interval():
    for z in np.linspace(-5.0, 5.0, 41):
        assert mittag_leffler(1.0, float(z)) == pytest.approx(math.exp(z), rel=1e-12)


def test_ml_strong_cancellation_branch():
    # alpha = 1/2, z = -5 needs the high-precision re-sum to meet tolerance
    expected = math.exp(25.0) * math.erfc(5.0)
    assert mittag_leffler(0.5, -5.0) == pytest.approx(expected, rel=1e-12)


@pytest.mark.parametrize(
    "alpha,z,value",
    [
        (0.1, -1.3, 0.42038164092268398),
        (0.1, -1.4, 0.40236553504513159),
        (0.1, -1.6, 0.37058944341474458),
        (0.2, -2.0, 0.30567869641870601),
        (0.2, -3.0, 0.22585454512648809),
    ],
)
def test_ml_resum_where_the_terms_dwarf_the_sum(alpha, z, value):
    # values from 150- and 300-digit mpmath sums of z^k / Gamma(k alpha + 1),
    # alpha the same binary double, which agree to 2e-46; the terms reach
    # 2e46 at alpha = 0.1, z = -1.6 and 9e103 at alpha = 0.2, z = -3, so the
    # re-sum must form k alpha in mp arithmetic and take its digits from
    # sum|t_k|, not from the double sum
    assert mittag_leffler(alpha, z) == pytest.approx(value, rel=1e-12)


def test_ml_resums_an_array_once(monkeypatch):
    # an array's flagged points share one sequence of log Gamma(k alpha + 1),
    # at the digits of its farthest point, and each value is within one ulp
    # of that point re-summed alone.  The grid stops at -1.6: from about
    # -1.93 on the double pass overflows at alpha = 0.1, and one point at
    # -1.9 takes seconds to re-sum
    import mpmath

    calls = []
    loggamma = mpmath.loggamma
    monkeypatch.setattr(mpmath, "loggamma", lambda x: calls.append(x) or loggamma(x))
    z = np.linspace(-1.6, -1.3, 4)
    assert all(ml_series_scalar(0.1, zk)[1] > _ML_COND_LIMIT for zk in z)
    alone, counts = [], []
    for zk in z.tolist():
        calls.clear()
        alone.append(mittag_leffler(0.1, zk))
        counts.append(len(calls))
    calls.clear()
    got = mittag_leffler(0.1, z)
    assert len(calls) == max(counts)
    for gk, ak in zip(got.tolist(), alone):
        assert abs(gk - ak) <= math.ulp(ak)


def test_ml_resum_names_cancellation_its_digits_do_not_cover():
    # sum|t_k| is 5.6e48 here: sized from 1.0, the re-sum keeps 25 digits
    with pytest.raises(ArithmeticError, match=r"lost its digits to cancellation.*alpha=0\.1, z=-1\.6"):
        _series_mp(0.1, [-1.6], [1.0])


def test_ml_domain_errors():
    with pytest.raises(ValueError):
        mittag_leffler(0.5, 5.1)
    with pytest.raises(ValueError):
        mittag_leffler(0.0, 0.5)
    with pytest.raises(ValueError):
        mittag_leffler(1.2, 0.5)


@pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
def test_ml_rejects_non_finite_z(z):
    # fails up front, naming alpha and z, instead of summing 200k terms
    with pytest.raises(ValueError, match=r"alpha=0\.5.*finite z.*z=-?(nan|inf)"):
        mittag_leffler(0.5, z)


def test_ml_array_rejects_first_bad_point():
    with pytest.raises(ValueError, match=r"alpha=0\.3.*\|z\| <= 5.*z=-6"):
        mittag_leffler(0.3, np.array([0.0, -1.0, -6.0, 7.0]))
    with pytest.raises(ValueError, match=r"alpha=0\.3.*finite z.*z=nan"):
        mittag_leffler(0.3, np.array([[0.5, -0.5], [np.nan, 1.0]]))


@pytest.mark.parametrize("alpha", [0.05, 0.1, 0.5, 0.9, 1.0])
def test_ml_array_bitwise_equals_scalar_series(alpha):
    # one array call reproduces the term-by-term scalar series bit for bit;
    # z = 0 and, at alpha = 1/2, the high-precision points z = -5 and -4.5
    # ride in the same array.  For alpha <= 0.1 the double series overflows
    # past |z| ~ 1.5 (see test_ml_overflow_raises), so the grid stops at 1.
    zmax = 5.0 if alpha >= 0.5 else 1.0
    z = np.concatenate((np.linspace(-zmax, zmax, 81), [0.0, -0.0, 1e-300, -1e-12]))
    got = mittag_leffler(alpha, z)
    assert got.shape == z.shape and got.dtype == np.float64
    resummed = 0
    for zk, gk in zip(z.tolist(), got.tolist()):
        value, cond, _, _ = ml_series_scalar(alpha, zk)
        if cond > _ML_COND_LIMIT:
            resummed += 1
            assert gk == mittag_leffler(alpha, zk)
        else:
            assert gk == value, (alpha, zk)
    if alpha == 0.5:
        assert resummed >= 2
    assert got[81] == 1.0 and got[82] == 1.0


@pytest.mark.parametrize("z", [-5.0, -2.0, 2.0, 5.0])
def test_ml_overflow_raises(z):
    # at alpha = 0.05 the terms z^k / Gamma(k/20 + 1) leave the double range;
    # the sum fails at once instead of running out its 200k-term budget
    with pytest.raises(OverflowError, match=r"alpha=0\.05"):
        mittag_leffler(0.05, np.array([-0.5, z, 0.5]))


def test_ml_float_in_float_out_and_shape_kept():
    assert type(mittag_leffler(0.4, -0.3)) is float
    assert type(mittag_leffler(0.4, np.float64(-0.3))) is float
    z = np.array([[-0.3, 0.2], [0.0, -1.0]])
    got = mittag_leffler(0.4, z)
    assert got.shape == (2, 2)
    assert got[0, 0] == mittag_leffler(0.4, -0.3)
    assert mittag_leffler(0.4, np.array([])).shape == (0,)


@pytest.mark.parametrize("alpha,z", [(0.3, -1.0), (0.7, -0.5), (1.0, 2.5), (0.1, -1.0)])
def test_ml_stopping_rule(alpha, z):
    # terminating term must sit below 1e-16 of the running sum, and the
    # library value is that sum
    value, _, terms, last_ratio = ml_series_scalar(alpha, z)
    assert terms >= 2
    assert last_ratio < 1e-16
    assert mittag_leffler(alpha, z) == value
