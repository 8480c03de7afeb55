"""Reference values for the benchmark, computed without geomax.

The turn count T of the game with n dice and s faces is the maximum of n
iid Geometric(1/s) variables, so P(T <= y) = (1 - q**y)**n with
q = (s - 1)/s. The moments follow from the subset expansion

    E[T]   = sum_k (-1)**(k+1) C(n,k) / (1 - q**k)
    E[T^2] = sum_k (-1)**(k+1) C(n,k) (1 + q**k) / (1 - q**k)**2

evaluated here in exact rationals (math.comb and Fraction). Where the
rationals get too large (n in the hundreds), the positive series

    E[T]   = sum_{t>=0} P(T > t),   E[T^2] = sum_{t>=0} (2t+1) P(T > t)

is summed in decimal arithmetic with enough digits that rounding is
negligible, and truncated where the termwise bound P(T > t) <= n q**t
puts the remaining tail below a target. That tail bound plus a rounding
allowance is returned with the value, so every reference is a value with
an explicit absolute error.

Nothing here depends on geomax: a change to the library's exact mode
cannot move the yardstick.
"""

from __future__ import annotations

import decimal
import math
from dataclasses import dataclass
from fractions import Fraction

#: Largest n for which the moments are taken from exact rationals.
EXACT_MAX_N = 200

#: Absolute tail mass at which the decimal series stop.
SERIES_TAIL = Fraction(1, 10**30)

_DIGITS = 40


@dataclass(frozen=True)
class Moments:
    """Mean, second moment and variance, each within err of the truth."""

    mean: Fraction
    second_moment: Fraction
    variance: Fraction
    err: Fraction


def exact_moments(n: int, s: int) -> Moments:
    """Closed alternating sums in rationals; err is 0."""
    if s == 1:
        return Moments(Fraction(1), Fraction(1), Fraction(0), Fraction(0))
    mean = Fraction(0)
    m2 = Fraction(0)
    for k in range(1, n + 1):
        a = s**k
        b = (s - 1) ** k  # q**k = b/a
        sign = 1 if k % 2 else -1
        c = math.comb(n, k)
        mean += sign * Fraction(c * a, a - b)
        m2 += sign * Fraction(c * (a + b) * a, (a - b) ** 2)
    return Moments(mean, m2, m2 - mean * mean, Fraction(0))


def series_moments(n: int, s: int) -> Moments:
    """Positive series in decimal arithmetic with an explicit error.

    After stopping at t = T the neglected mass is at most
    sum_{t>=T} n q**t = n q**T / (1 - q) for the mean and
    sum_{t>=T} (2t+1) n q**t = n q**T ((2T+1)/(1-q) + 2q/(1-q)**2)
    for the second moment. Every decimal operation rounds to _DIGITS
    significant digits, so each term of the second-moment sum is off by
    less than 100 (2t+1) 10**(1 - _DIGITS) and the whole sum by less than
    100 (T+1)**2 10**(1 - _DIGITS).
    """
    if s == 1:
        return exact_moments(n, s)
    ctx = decimal.Context(prec=_DIGITS)
    q = ctx.divide(decimal.Decimal(s - 1), decimal.Decimal(s))
    one = decimal.Decimal(1)
    mean = decimal.Decimal(0)
    m2 = decimal.Decimal(0)
    qt = one
    q_float = (s - 1) / s
    qt_float = 1.0
    stop = float(SERIES_TAIL) / 4.0
    t = 0
    # the float estimate only decides when to stop; the bound below is exact
    while t == 0 or n * qt_float * s * (2 * t + 1 + 2 * s) > stop:
        survive = ctx.subtract(one, ctx.power(ctx.subtract(one, qt), n))
        mean = ctx.add(mean, survive)
        m2 = ctx.add(m2, ctx.multiply(decimal.Decimal(2 * t + 1), survive))
        qt = ctx.multiply(qt, q)
        qt_float *= q_float
        t += 1
    qf = Fraction(s - 1, s)
    head = 2 * n * Fraction(qt)  # doubled to cover the rounding of qt itself
    tail_mean = head * s
    tail_m2 = head * ((2 * t + 1) * s + 2 * qf * s * s)
    rounding = Fraction(100 * (t + 1) ** 2, 10 ** (_DIGITS - 1))
    mean_f, m2_f = Fraction(mean), Fraction(m2)
    err_mean = tail_mean + rounding
    err_m2 = tail_m2 + rounding
    err_var = err_m2 + 2 * mean_f * err_mean + err_mean * err_mean
    return Moments(mean_f, m2_f, m2_f - mean_f * mean_f, max(err_mean, err_m2, err_var))


def moments(n: int, s: int) -> Moments:
    """Reference moments: exact up to EXACT_MAX_N dice, decimal series beyond."""
    if n <= EXACT_MAX_N:
        return exact_moments(n, s)
    return series_moments(n, s)


def cdf(n: int, s: int, y: int) -> Fraction:
    """P(T <= y) exactly."""
    if y < 1:
        return Fraction(0)
    return Fraction(s**y - (s - 1) ** y, s**y) ** n


def pmf(n: int, s: int, y: int) -> Fraction:
    """P(T == y) exactly, for y >= 1."""
    return cdf(n, s, y) - cdf(n, s, y - 1)


def quantile(n: int, s: int, prob: float) -> int:
    """Smallest y >= 1 with P(T <= y) >= prob, decided in exact arithmetic."""
    target = Fraction(prob)
    if s == 1:
        return 1
    lo, hi = 1, 1
    while cdf(n, s, hi) < target:
        lo, hi = hi + 1, hi * 2
    while lo < hi:
        mid = (lo + hi) // 2
        if cdf(n, s, mid) >= target:
            hi = mid
        else:
            lo = mid + 1
    return lo


def self_check() -> None:
    """Raise AssertionError unless the references reproduce hand values."""
    checks = [(exact_moments(2, 2).mean, Fraction(8, 3))]
    for s in (2, 3, 7, 40):
        checks.append((exact_moments(2, s).mean, Fraction(3 * s * s - 2 * s, 2 * s - 1)))
    for got, want in checks:
        if got != want:
            raise AssertionError(f"reference mean {got} != hand value {want}")
    series = series_moments(3, 9)
    exact = exact_moments(3, 9)
    for name in ("mean", "second_moment", "variance"):
        gap = abs(getattr(series, name) - getattr(exact, name))
        if gap > series.err:
            raise AssertionError(f"series {name} misses the exact value by {float(gap):.3g}")
