"""Low-level numeric machinery shared by the evaluators.

Everything here is a constant or a pure function, safe to call from
multiple threads. The pieces:

* the unit roundoff _U of a double,
* _float_p, the float 1/s that every float route reads,
* _lowest_terms, the Fraction of a pair its caller proves coprime, and
  _exact_moments, the reduction both exact moment routes end in,
* public closed forms for the power-weighted geometric series, checked
  against partial sums by acceptance criterion 10,
* geometric tail bounds that truncate the matrix-power route's survival
  sums (the series sums its tail in closed form instead).
"""

from __future__ import annotations

import math
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


def _exact_moments(q: int, p: int, r: int) -> tuple[Fraction, Fraction, Fraction]:
    """(p / q, r / q**2, (r - p**2) / q**2) in lowest terms, for q > 0, with no gcd of q**2's size.

    With h = gcd(a, q), a = h a' and q = h q', so that gcd(a', q') = 1,
    gcd(a, q**2) = h gcd(a', h q'**2) = h g, g = gcd(a', h): a / q**2 is the
    coprime (a' / g) / ((h / g) q'**2).
    """
    values = [Fraction(p, q)]
    for a in (r, r - p * p):
        h = math.gcd(a, q)
        a, rest = a // h, q // h
        g = math.gcd(a, h)
        values.append(_lowest_terms(a // g, h // g * rest**2))
    return tuple(values)


def _moments_products(x: int, y: int, z: int) -> int:
    """Bound on _exact_moments' digit products, for q, p, r of at most x, y, z >= x digits and any h.

    Counted as chain._recursion_products counts, a gcd of x- and y-digit ints as
    x y: p**2 (y**2), r - p**2 (2y + z; 0 <= r - p**2 <= r), p / q (x y + (x + y)**2 / 8),
    and per a / q**2, h of d digits: the gcd (z x), a' ((z - d) d), q' ((x - d) d),
    g and a' / g ((z - d + 1) d each), h / g (d**2 / 4), q'**2 ((x - d + 1)**2) and
    its product by h / g (2 (d + 1) (x - d + 1)), in all z x + (x + 2)**2 - 1 +
    (3z + x) d - 4.75 d**2 <= z x + (x + 2)**2 + (3z + x)**2 / 19, about 5.6 x**2 at z = 2x.
    """
    square = z * x + (x + 2) ** 2 + -(-((3 * z + x) ** 2) // 19)
    return y * y + 2 * y + z + x * y + -(-((x + y) ** 2) // 8) + 2 * square


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
