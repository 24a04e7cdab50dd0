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


def _series_mp(alpha: float, z: float, cond: float) -> float:
    """Re-sum the same Taylor series with enough working digits to absorb the
    cancellation estimated by the double-precision pass."""
    import mpmath  # imported here: no shipped study reaches this path

    extra = max(0.0, math.log10(cond))
    dps = int(extra) + 25
    with mpmath.workdps(dps):
        za = mpmath.mpf(z)
        total = mpmath.mpf(1)
        term = mpmath.mpf(1)
        k = 0
        small_runs = 0
        tol = mpmath.mpf(10) ** (-(dps - 5))
        while k < _ML_MAX_TERMS:
            term *= za * mpmath.exp(
                mpmath.loggamma(k * alpha + 1) - mpmath.loggamma((k + 1) * alpha + 1)
            )
            k += 1
            total += term
            if abs(term) < tol * abs(total):
                small_runs += 1
                if small_runs >= 2:
                    break
            else:
                small_runs = 0
        else:
            raise ArithmeticError(
                f"Mittag-Leffler series did not converge within {_ML_MAX_TERMS} terms "
                f"(alpha={alpha:g}, z={z:g})"
            )
        return float(total)


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
    z), that point's series is re-summed at adaptive precision.
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
    for i in np.flatnonzero(cond > _ML_COND_LIMIT):
        value[i] = _series_mp(alpha, float(flat[i]), float(cond[i]))
    return float(value[0]) if za.ndim == 0 else value.reshape(za.shape)
