"""Special functions: real gamma and the one-parameter Mittag-Leffler function.

Both are building blocks for the convolution weights, the closed-form
Riemann-Liouville derivatives used as oracles, and the exact solutions of the
two-term benchmark problems.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["gamma", "mittag_leffler"]

# Stopping rule for the Mittag-Leffler series: a term must fall below this
# fraction of the running sum twice in a row before the sum is accepted.
_ML_STOP = 1e-16
_ML_MAX_TERMS = 200_000
# Re-sum at higher precision once the estimated roundoff of the double sum
# (unit roundoff times the condition number sum|t_k|/|sum t_k|) becomes
# comparable to the 1e-12 accuracy contract.
_ML_COND_LIMIT = 1e-13 / 2.220446049250313e-16


def gamma(x: float) -> float:
    """Gamma function for real arguments.

    Reflection handles negative non-integer arguments.  Raises ValueError at
    the poles (0 and the negative integers) and OverflowError for arguments
    past ~171.6 where the result exceeds the double range.
    """
    if x <= 0 and x == math.floor(x):
        raise ValueError(f"gamma pole at x={x:g} (zero or negative integer)")
    try:
        return math.gamma(x)
    except ValueError as exc:  # pragma: no cover - pole guard above
        raise ValueError(f"gamma undefined at x={x:g}") from exc
    except OverflowError as exc:
        raise OverflowError(f"gamma overflow at x={x:g} (limit ~171.6)") from exc


def _series(alpha: float, z: np.ndarray):
    """Double-precision Taylor sums of E_alpha at every point of the 1-d array z.

    All points run the same recurrence term *= z * r_k, with the ratio
    r_k = Gamma(k alpha + 1) / Gamma((k+1) alpha + 1) computed once per k, and
    each point's sum is accepted once a term falls below 1e-16 of it twice in
    a row; from then on its z is zero, so its sums no longer change.  Returns
    (value, condition) where condition is sum|t_k| / |sum t_k|, the
    cancellation factor of the alternating sum.  Raises OverflowError once a
    partial sum leaves the double range (small alpha with |z| past about 1.5).
    """
    z = z.copy()
    term = np.ones(z.size)
    total = np.ones(z.size)
    abs_total = np.ones(z.size)
    small_runs = np.zeros(z.size, dtype=int)
    live = np.ones(z.size, dtype=bool)
    k = 0
    with np.errstate(over="ignore"):  # overflow is raised below
        while live.any():
            if k == _ML_MAX_TERMS:
                raise ArithmeticError(
                    f"Mittag-Leffler series did not converge within {_ML_MAX_TERMS} terms "
                    f"(alpha={alpha:g}, z={z[live][0]:g})"
                )
            term *= z * math.exp(math.lgamma(k * alpha + 1.0) - math.lgamma((k + 1) * alpha + 1.0))
            k += 1
            total += term
            abs_total += np.abs(term)
            size = np.abs(total)
            if not size.max() < math.inf:
                raise OverflowError(
                    f"Mittag-Leffler series overflowed the double range "
                    f"(alpha={alpha:g}, z={z[~np.isfinite(total)][0]:g})"
                )
            small_runs = np.where(np.abs(term) < _ML_STOP * size, small_runs + 1, 0)
            accepted = live & (small_runs >= 2)
            z[accepted] = 0.0
            live &= ~accepted
    with np.errstate(divide="ignore"):
        return total, abs_total / np.abs(total)


def _series_mp(alpha: float, z: list, abs_total: list) -> list:
    """Re-sum the same Taylor series at every point of z with 25 digits
    beyond the largest terms of any of them, sized from the double pass's
    sum|t_k| (the double sum itself may be wrong in every digit), to 1e-20
    of each sum.  The term ratios Gamma(k alpha + 1) / Gamma((k+1) alpha + 1)
    are built once per call, as far as the longest sum reads them, and
    shared by every point; their Gamma arguments k alpha + 1 are formed in
    mp arithmetic: rounded to double, each is off by up to k/2 ulp, which
    terms of 1e46 turn into errors of 1e32.  Raises ArithmeticError where a
    point's terms' rounding, about sum|t_k| 10^-dps, is not below 1e-20 of
    its sum."""
    import mpmath  # imported here: no shipped study reaches this path

    dps = int(math.log10(max(abs_total))) + 25
    values = []
    with mpmath.workdps(dps):
        a, tol = mpmath.mpf(alpha), mpmath.mpf(10) ** -20
        ratios, log_gamma = [], mpmath.mpf(0)  # log_gamma: log Gamma(len(ratios) alpha + 1)
        for zk in z:
            za = mpmath.mpf(zk)
            total = term = abs_sum = mpmath.mpf(1)
            k = small_runs = 0
            while k < _ML_MAX_TERMS:
                if k == len(ratios):
                    log_gamma, previous = mpmath.loggamma((k + 1) * a + 1), log_gamma
                    ratios.append(mpmath.exp(previous - log_gamma))
                term *= za * ratios[k]
                k += 1
                total += term
                size = abs(term)
                abs_sum += size
                if size < tol * abs(total):
                    small_runs += 1
                    if small_runs >= 2:
                        break
                else:
                    small_runs = 0
            else:
                raise ArithmeticError(
                    f"Mittag-Leffler series did not converge within {_ML_MAX_TERMS} terms "
                    f"(alpha={alpha:g}, z={zk:g})"
                )
            if abs_sum > tol * abs(total) * mpmath.mpf(10) ** dps:
                raise ArithmeticError(
                    f"Mittag-Leffler re-sum lost its digits to cancellation: sum|t_k| = {float(abs_sum):.3g} "
                    f"against a sum of {float(total):.3g} at {dps} digits (alpha={alpha:g}, z={zk:g})"
                )
            values.append(float(total))
    return values


def mittag_leffler(alpha: float, z):
    """One-parameter Mittag-Leffler function E_alpha(z) by Taylor series.

    Parameters
    ----------
    alpha : fractional order, required in (0, 1].
    z : real argument, a float or an array of them, each finite with
        |z| <= 5.  The benchmark problems only need z in [-1, 0]; the hard
        cap turns misuse into an explicit error.

    Returns a float for a float ``z`` and an array of ``z``'s shape otherwise.
    The series is summed in double precision for all points together with a
    per-point term-ratio stopping rule; where the cancellation estimate shows
    the double sum cannot reach ~1e-13 relative accuracy (strongly negative
    z), those points' series are re-summed together at adaptive precision.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError(f"mittag_leffler requires alpha in (0, 1], got {alpha:g}")
    za = np.asarray(z, dtype=float)
    flat = za.ravel()
    bad = ~(np.abs(flat) <= 5.0)  # also true at NaN
    if bad.any():
        first = flat[np.argmax(bad)]
        what = "finite z" if not np.isfinite(first) else "|z| <= 5"
        raise ValueError(f"mittag_leffler(alpha={alpha:g}) requires {what}, got z={first:g}")
    value, cond = _series(alpha, flat)
    flagged = np.flatnonzero(cond > _ML_COND_LIMIT)
    if flagged.size:  # one re-sum for every flagged point, sharing its term ratios
        abs_total = cond[flagged] * np.abs(value[flagged])
        value[flagged] = _series_mp(alpha, flat[flagged].tolist(), abs_total.tolist())
    return float(value[0]) if za.ndim == 0 else value.reshape(za.shape)
