"""Low-level numeric machinery shared by the evaluators.

Everything here is a constant or a pure function, safe to call from
multiple threads. The pieces:

* the unit roundoff _U of a double,
* closed forms for the power-weighted geometric series that back the
  second-moment algebra,
* geometric tail bounds used to truncate the positive survival sums.
"""

from __future__ import annotations

#: Unit roundoff of a double, u = 2**-53.
_U = 2.0**-53


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


def tail_bound_max_geom(n: int, q, start: int):
    """Upper bound on sum_{k >= start} (1 - (1 - q**k)**n).

    Uses 1 - (1-x)**n <= n*x termwise, then sums the geometric tail:
    n * q**start / (1 - q). Valid for 0 <= q < 1; q may be a float or a
    Fraction and the bound comes back in the same arithmetic.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if start < 0:
        raise ValueError("start must be nonnegative")
    if not 0 <= q < 1:
        raise ValueError(f"tail bound needs 0 <= q < 1, got {q!r}")
    return n * q**start / (1 - q)


def tail_bound_weighted_max_geom(n: int, q, start: int):
    """Upper bound on sum_{t >= start} (2t+1) * (1 - (1 - q**t)**n).

    Same termwise bound as tail_bound_max_geom with the linear weight
    folded in: (2*start + 3) * n * q**start * (1 + 2q/(1-q)) / (1-q).
    Slightly loose, and the (2*start + 3) factor can make it grow for
    small start; it decays geometrically once 2*start + 5 > 2/(1 - q),
    which is all the truncation logic needs.
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if start < 0:
        raise ValueError("start must be nonnegative")
    if not 0 <= q < 1:
        raise ValueError(f"tail bound needs 0 <= q < 1, got {q!r}")
    return (2 * start + 3) * n * q**start * (1 + 2 * q / (1 - q)) / (1 - q)
