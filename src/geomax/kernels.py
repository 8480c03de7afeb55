"""Low-level numeric machinery shared by the evaluators.

Everything here is a constant or a pure function, safe to call from
multiple threads. The pieces:

* the unit roundoff _U of a double,
* _float_p, the float 1/s that every float route reads,
* _lowest_terms, the Fraction of a pair its caller proves coprime,
* public closed forms for the power-weighted geometric series, checked
  against partial sums by acceptance criterion 10,
* geometric tail bounds that truncate the matrix-power route's survival
  sums (the series sums its tail in closed form instead).
"""

from __future__ import annotations

import numbers
from fractions import Fraction

#: Unit roundoff of a double, u = 2**-53.
_U = 2.0**-53


def _float_p(params) -> float:
    """params.p, the float 1/s; ValueError once it is subnormal, too coarse for the float bounds."""
    if params.p < 2.0**-1022:  # the smallest normal double
        raise ValueError(f"s={params.s} puts the float 1/s below the smallest normal double")
    return params.p


@numbers.Rational.register
class _Coprime:
    __slots__ = ("numerator", "denominator")


def _lowest_terms(numerator: int, denominator: int) -> Fraction:
    """Fraction(numerator, denominator) for a coprime pair, denominator > 0, without Fraction's gcd.

    Fraction(r), r a numbers.Rational, copies r's numerator and denominator,
    which the ABC requires in lowest terms, and on CPython 3.10-3.13 runs
    no gcd; a Python that reduced them anyway would only be slower.
    """
    pair = _Coprime()
    pair.numerator, pair.denominator = numerator, denominator
    return Fraction(pair)


def _check_open_unit(x) -> None:
    if not -1 < x < 1:
        raise ValueError(f"series diverges for |x| >= 1, got x={x!r}")


def weighted_geom_sum_first(x):
    """Sum of i * x**i over i >= 1, for |x| < 1.

    Works on floats and fractions alike; the closed form is x/(1-x)**2.
    """
    _check_open_unit(x)
    return x / (1 - x) ** 2


def weighted_geom_sum_second(x):
    """Sum of i**2 * x**i over i >= 1, for |x| < 1: x(1+x)/(1-x)**3."""
    _check_open_unit(x)
    return x * (1 + x) / (1 - x) ** 3


def _check_tail(n: int, q, start: int) -> None:
    if n < 1:
        raise ValueError("n must be at least 1")
    if start < 0:
        raise ValueError("start must be nonnegative")
    if not 0 <= q < 1:
        raise ValueError(f"tail bound needs 0 <= q < 1, got {q!r}")


def tail_bound_max_geom(n: int, q, start: int):
    """Upper bound on sum_{k >= start} (1 - (1 - q**k)**n).

    Uses 1 - (1-x)**n <= n*x termwise, then sums the geometric tail:
    n * q**start / (1 - q). Valid for 0 <= q < 1; q may be a float or a
    Fraction and the bound comes back in the same arithmetic.
    """
    _check_tail(n, q, start)
    return n * q**start / (1 - q)


def tail_bound_weighted_max_geom(n: int, q, start: int):
    """Upper bound on sum_{t >= start} (2t+1) * (1 - (1 - q**t)**n).

    Same termwise bound as tail_bound_max_geom with the linear weight
    folded in: (2*start + 3) * n * q**start * (1 + 2q/(1-q)) / (1-q).
    Slightly loose, and the (2*start + 3) factor can make it grow for
    small start; it decays geometrically once 2*start + 5 > 2/(1 - q),
    which is all the truncation logic needs.
    """
    _check_tail(n, q, start)
    return (2 * start + 3) * n * q**start * (1 + 2 * q / (1 - q)) / (1 - q)
