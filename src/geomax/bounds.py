"""Elementary and improved bounds on the turn-count moments.

All bounds are exact rationals (plain ints where possible), so equality
cases can be checked without tolerance. Every function requires n <= s;
the arguments behind these bounds lean on the playable game, so relaxed
parameter sets are rejected here even when the caller opted into them.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .params import GameParams

@dataclass(frozen=True)
class BoundReport:
    quantity: str  # mean | second-moment | variance
    lower: int | Fraction
    upper: int | Fraction
    lower_source: str
    upper_source: str

    def __post_init__(self) -> None:
        if self.lower > self.upper:
            raise ValueError("bound report with lower > upper")

    def contains(self, value) -> bool:
        return self.lower <= value <= self.upper


def _require_playable(params: GameParams) -> None:
    if params.n > params.s:
        raise ValueError("bounds require n <= s")


def ev_bounds_elementary(params: GameParams) -> BoundReport:
    """s <= mean <= n*s: one die takes s turns on average, n dice at most n*s."""
    _require_playable(params)
    return BoundReport(
        quantity="mean",
        lower=params.s,
        upper=params.n * params.s,
        lower_source="elementary-EV",
        upper_source="elementary-EV",
    )


def pair_expected_value(s: int) -> Fraction:
    """Exact mean turn count for two dice: (3s**2 - 2s) / (2s - 1)."""
    if s < 2:
        raise ValueError("two dice need s >= 2")
    return Fraction(3 * s * s - 2 * s, 2 * s - 1)


def ev_bound_pairing(params: GameParams) -> BoundReport:
    """Upper bound from covering the dice by pairs.

    Even n: (n/2) pairs, each finishing in (3s**2-2s)/(2s-1) expected
    turns if played alone. Odd n: (n-1)/2 pairs plus one leftover die
    contributing s. At n=1 this degrades to the elementary bound s.
    The lower bound stays the elementary one.
    """
    _require_playable(params)
    n, s = params.n, params.s
    if n % 2 == 0:
        upper = Fraction(n, 2) * pair_expected_value(s)
    elif n == 1:
        upper = Fraction(s)
    else:
        upper = Fraction(n - 1, 2) * pair_expected_value(s) + s
    return BoundReport(
        quantity="mean",
        lower=params.s,
        upper=upper,
        lower_source="elementary-EV",
        upper_source="pairing-EV",
    )


def second_moment_bounds_elementary(params: GameParams) -> BoundReport:
    """s**2 (2 - 1/s) <= second moment <= n * s**2 (2 - 1/s)."""
    _require_playable(params)
    single = Fraction(params.s * params.s * (2 * params.s - 1), params.s)
    return BoundReport(
        quantity="second-moment",
        lower=single,
        upper=params.n * single,
        lower_source="elementary-Var",
        upper_source="elementary-Var",
    )


def var_bounds_elementary(params: GameParams) -> BoundReport:
    """s**2 - s <= variance <= s**2 (2n - 1) - n*s."""
    _require_playable(params)
    n, s = params.n, params.s
    return BoundReport(
        quantity="variance",
        lower=s * s - s,
        upper=s * s * (2 * n - 1) - n * s,
        lower_source="elementary-Var",
        upper_source="elementary-Var",
    )


def var_bound_sum(params: GameParams) -> BoundReport:
    """variance <= n * s * (s - 1): the per-die variances add up as a bound.

    The individual removal times are positively associated, yet the sum
    n * Var(single die) still dominates the variance of their maximum.
    """
    _require_playable(params)
    n, s = params.n, params.s
    return BoundReport(
        quantity="variance",
        lower=s * s - s,
        upper=n * s * (s - 1),
        lower_source="elementary-Var",
        upper_source="sum-Var",
    )
