"""Checks for the shared numeric machinery."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from geomax.kernels import (
    tail_bound_max_geom,
    tail_bound_weighted_max_geom,
    weighted_geom_sum_first,
    weighted_geom_sum_second,
)


def partial_weighted_sum(x: float, power: int, terms: int) -> float:
    return math.fsum(i**power * x**i for i in range(1, terms + 1))


class TestWeightedGeomSums:
    def test_known_values(self):
        assert weighted_geom_sum_first(0.5) == pytest.approx(2.0, rel=1e-15)
        assert weighted_geom_sum_first(-0.5) == pytest.approx(-2.0 / 9.0, rel=1e-15)
        assert weighted_geom_sum_second(0.5) == pytest.approx(6.0, rel=1e-15)
        # exact arithmetic passes straight through
        assert weighted_geom_sum_first(Fraction(1, 2)) == 2
        assert weighted_geom_sum_second(Fraction(1, 3)) == Fraction(3, 2)

    @pytest.mark.parametrize("x", [-0.9, -0.5, -0.1, 0.1, 0.5, 0.9, 0.99])
    def test_against_partial_sums(self, x):
        # 10**4 terms leave a tail below 1e-12 relative even at x = 0.99
        assert weighted_geom_sum_first(x) == pytest.approx(
            partial_weighted_sum(x, 1, 10**4), rel=1e-10
        )
        assert weighted_geom_sum_second(x) == pytest.approx(
            partial_weighted_sum(x, 2, 10**4), rel=1e-10
        )

    def test_exact_partial_sums_converge(self):
        # rational partial sums, compared against the closed form exactly
        x = Fraction(1, 2)
        partial = sum(i * x**i for i in range(1, 120))
        assert abs(weighted_geom_sum_first(x) - partial) < Fraction(1, 2**100)

    @pytest.mark.parametrize("x", [1.0, -1.0, 1.5, -2.0])
    def test_divergent_arguments_rejected(self, x):
        with pytest.raises(ValueError):
            weighted_geom_sum_first(x)
        with pytest.raises(ValueError):
            weighted_geom_sum_second(x)


class TestTailBounds:
    @pytest.mark.parametrize("n,q,start", [(1, 0.5, 0), (2, 0.5, 10), (5, 0.9, 3), (12, 0.95, 40)])
    def test_dominates_brute_force_tail(self, n, q, start):
        # the k = 0 survival term is exactly 1, outside expm1's domain
        tail = math.fsum(
            1.0 if k == 0 else -math.expm1(n * math.log1p(-(q**k)))
            for k in range(start, start + 4000)
        )
        assert tail <= tail_bound_max_geom(n, q, start) * (1 + 1e-12)

    @pytest.mark.parametrize("n,q,start", [(2, 0.5, 5), (4, 0.8, 20), (9, 0.9, 50)])
    def test_weighted_bound_dominates_brute_force_tail(self, n, q, start):
        tail = math.fsum(
            (2 * t + 1) * -math.expm1(n * math.log1p(-(q**t)))
            for t in range(start, start + 4000)
        )
        assert tail <= tail_bound_weighted_max_geom(n, q, start) * (1 + 1e-12)

    def test_known_value(self):
        # 2 * (1/2)**10 / (1/2) = 2**-8
        assert tail_bound_max_geom(2, 0.5, 10) == pytest.approx(2.0**-8, rel=1e-15)

    def test_degenerate_q_zero(self):
        assert tail_bound_max_geom(3, 0.0, 1) == 0.0
        assert tail_bound_max_geom(3, Fraction(0), 2) == 0

    def test_unweighted_bound_monotone_in_start(self):
        values = [tail_bound_max_geom(4, 0.9, k) for k in range(0, 200, 7)]
        assert values == sorted(values, reverse=True)

    def test_weighted_bound_decays_past_its_hump(self):
        # (2k+3) * q**k rises until 2k+5 > 2/(1-q), here k >= 8
        values = [tail_bound_weighted_max_geom(4, 0.9, k) for k in range(8, 200, 7)]
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-3 * values[0]

    def test_invalid_q_rejected(self):
        for q in (1.0, 1.5, -0.1):
            with pytest.raises(ValueError):
                tail_bound_max_geom(2, q, 0)
            with pytest.raises(ValueError):
                tail_bound_weighted_max_geom(2, q, 0)


@pytest.mark.parametrize("bound", [tail_bound_max_geom, tail_bound_weighted_max_geom])
@pytest.mark.parametrize(
    "n, start, message", [(0, 1, "n must be at least 1"), (2, -1, "start must be nonnegative")]
)
def test_tail_bound_sizes_are_checked(bound, n, start, message):
    with pytest.raises(ValueError, match=message):
        bound(n, 0.5, start)
