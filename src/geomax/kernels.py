"""Low-level numeric machinery shared by the evaluators.

Everything here is a pure function, safe to call from multiple threads.
The pieces:

* closed forms for the power-weighted geometric series that back the
  second-moment algebra,
* exact binomial coefficients, for the closed alternating sums only,
* geometric tail bounds used to truncate the positive-term series.
"""

from __future__ import annotations

import sys
from functools import lru_cache

_EPS = sys.float_info.epsilon

#: Unit roundoff of a double, u = 2**-53.
_U = _EPS / 2


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


@lru_cache(maxsize=None)
def _pascal_row(n: int) -> tuple[int, ...]:
    """Row n of Pascal's triangle, in O(n) big-int steps.

    C(n, k) = C(n, k-1) * (n - k + 1) / k, where the division is exact;
    the second half mirrors the first. A cache miss builds and keeps row
    n alone: deriving it from row n - 1 would keep every row below too.
    """
    half = [1]
    for k in range(1, n // 2 + 1):
        half.append(half[-1] * (n - k + 1) // k)
    return (*half, *reversed(half[: (n + 1) // 2]))


def binomial(n: int, k: int) -> int:
    """Exact C(n, k) from a cached row of Pascal's triangle.

    Rows are plain Python integers, so there is no overflow ceiling; rows
    are built on demand and shared process-wide (lru_cache makes the
    row construction thread safe).
    """
    if n < 0 or k < 0:
        raise ValueError("binomial needs n >= 0 and k >= 0")
    if k > n:
        return 0
    return _pascal_row(n)[k]


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
