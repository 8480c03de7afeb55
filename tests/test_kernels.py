"""Checks for the shared numeric machinery."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomax import EXACT, GameParams, absorption_cdf_profile, moment_report, pmf
from geomax.kernels import (
    _exact_moments,
    _lowest_terms,
    tail_bound_max_geom,
    tail_bound_weighted_max_geom,
    weighted_geom_sum_first,
    weighted_geom_sum_second,
)
from geomax.report import ROUTES


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


def reduced_point(n: int, s: int, y: int, quantity: str) -> Fraction:
    """The exact cdf or pmf at y as Fraction(N, D), reduced by Fraction's own gcd."""
    def w(t):  # s**(n t) P(T <= t)
        return (s**t - (s - 1) ** t) ** n

    numerator = w(y) if quantity == "cdf" else w(y) - s**n * w(y - 1)
    return Fraction(numerator, s ** (n * y))


def assert_same_fraction(value, expected: Fraction) -> None:
    assert type(value) is Fraction
    assert (value.numerator, value.denominator, hash(value)) == (expected.numerator, expected.denominator, hash(expected))


class TestLowestTerms:
    """Every exact point built by _lowest_terms is the Fraction a gcd would have reduced."""

    def test_a_coprime_pair_is_the_reduced_fraction(self):
        for numerator, denominator in ((0, 1), (-3, 4), (5, 1), (2**70 + 1, 2**71)):
            assert_same_fraction(_lowest_terms(numerator, denominator), Fraction(numerator, denominator))

    def test_the_closed_pmf_is_reduced(self):
        pairs = [(n, s, y) for s in range(1, 13) for n in range(1, s + 1) for y in range(1, 201)]
        pairs += [(n, 1, y) for n in range(2, 6) for y in range(1, 6)]  # s = 1, relaxed
        pairs += [(10, 6, y) for y in range(1, 201)] + [(34, 39, 161)]  # the TENZI pair, grid's largest
        for n, s, y in pairs:
            assert_same_fraction(pmf(GameParams(n, s, relaxed=True), y, EXACT), reduced_point(n, s, y, "pmf"))

    def test_the_chains_cdf_pmf_and_profile_are_reduced(self):
        for s in range(1, 9):
            for n in range(1, s + 1):
                params = GameParams(n, s)
                profile = absorption_cdf_profile(params, 60, EXACT)
                assert_same_fraction(profile[0], Fraction(0))
                for t in range(1, 61):
                    assert_same_fraction(profile[t], reduced_point(n, s, t, "cdf"))
                for quantity in ("cdf", "pmf"):
                    for y in (1, 2, 9, 60):
                        value = ROUTES[(quantity, "matrix-power")](params, EXACT, y)[0]
                        assert_same_fraction(value, reduced_point(n, s, y, quantity))

    def test_the_exact_points_run_no_gcd_on_big_ints(self, monkeypatch):
        # Fraction(N, D) runs math.gcd on the pair: 29k bits at (34, 39), 8.6k at (12, 12)
        calls = {
            (34, 39, 161, "pmf"): lambda: pmf(GameParams(34, 39), 161, EXACT),
            **{
                (12, 12, 200, q): lambda q=q: ROUTES[(q, "matrix-power")](GameParams(12, 12), EXACT, 200)[0]
                for q in ("cdf", "pmf")
            },
        }
        expected = {point: reduced_point(*point) for point in calls}
        gcd = math.gcd

        def small_gcd(*ints):
            assert max(abs(i).bit_length() for i in ints) <= 1000, "a gcd on an int over 1,000 bits"
            return gcd(*ints)

        monkeypatch.setattr(math, "gcd", small_gcd)
        for point, call in calls.items():
            assert_same_fraction(call(), expected[point])


@st.composite
def moment_ints(draw):
    """(q, p, r) sharing a factor to drawn powers, so gcd(r, q) runs from 1 to q and past q**2."""
    shared = draw(st.integers(1, 2**70))
    q = shared ** draw(st.integers(0, 3)) * draw(st.integers(1, 2**70))
    p = shared ** draw(st.integers(0, 4)) * draw(st.integers(-(2**140), 2**140))
    r = shared ** draw(st.integers(0, 8)) * draw(st.integers(-(2**280), 2**280))
    return q, p, r


class TestExactMoments:
    """kernels._exact_moments is (p / q, r / q**2, (r - p**2) / q**2) as Fraction reduces them."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(moment_ints())
    @example((1, 3, 5))  # q = 1
    @example((12, 0, 0))  # a = 0 for every value
    @example((12, -7, -5))  # negative a
    @example((6, 30, 42))  # h = q for p and r
    @example((12, 2**3 * 3, 2**5 * 3**3 * 5))  # v_2(r) = 5 and v_3(r) = 3 pass 2 v_p(q), q = 2**2 3
    @example((2**100 * 3**50, 2**150, 2**201 * 3**99))
    def test_each_value_is_the_reduced_fraction(self, ints):
        q, p, r = ints
        expected = (Fraction(p, q), Fraction(r, q * q), Fraction(r - p * p, q * q))
        for value, reduced in zip(_exact_moments(q, p, r), expected):
            assert_same_fraction(value, reduced)

    def test_no_gcd_has_the_squares_size(self, monkeypatch):
        # a gcd's cost is set by its smaller int, never above Q's bits: at
        # (40, 40) the closed root's Q has 2,647 bits and R 5,308
        gcd, smaller = math.gcd, []

        def recorded(*ints):
            smaller.append(min(abs(i).bit_length() for i in ints))
            return gcd(*ints)

        params = GameParams(40, 40)
        expected = {method: moment_report(params, EXACT, method) for method in ("closed", "recursive")}
        monkeypatch.setattr(math, "gcd", recorded)
        for method, report in expected.items():
            smaller.clear()
            assert moment_report(params, EXACT, method) == report
            assert 0 < max(smaller) <= 2647, method
