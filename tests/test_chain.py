"""Absorbing-chain cross-checks.

Hand-unrolled two-dice numbers pin the transition rows and the first
recursion step; everything else is checked against the closed formulas,
which share no code with the chain builders.
"""

from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomax import (
    EXACT,
    FLOAT,
    GameParams,
    absorption_cdf_profile,
    build_transition_matrix,
    cdf,
    expected_value_closed,
    moment_report,
    second_moment_closed,
    second_moments_recursive,
)
from geomax.chain import absorption_step_bound
from geomax.report import ROUTES

playable = st.integers(1, 12).flatmap(
    lambda s: st.integers(1, s).map(lambda n: GameParams(n=n, s=s))
)


class TestTransitionMatrix:
    def test_two_dice_two_faces_rows_by_hand(self):
        m = build_transition_matrix(GameParams(2, 2), EXACT)
        assert m.row(0) == (Fraction(1), Fraction(0), Fraction(0))
        # one die left: hits its target half the time
        assert m.row(1) == (Fraction(1, 2), Fraction(1, 2), Fraction(0))
        # two dice: both hit 1/4, one hits 1/2, neither 1/4
        assert m.row(2) == (Fraction(1, 4), Fraction(1, 2), Fraction(1, 4))

    def test_three_dice_row_spot_value(self):
        m = build_transition_matrix(GameParams(3, 6), EXACT)
        # P(exactly one of three dice rolls its number) = 3*(1/6)*(5/6)^2
        assert m.row(3)[2] == 3 * Fraction(1, 6) * Fraction(25, 36)

    @given(playable)
    def test_rows_are_exact_distributions(self, params):
        m = build_transition_matrix(params, EXACT)
        for total in m.row_sums():
            assert total == 1
        for i, row in enumerate(m.rows):
            assert all(type(entry) is Fraction and entry >= 0 for entry in row)
            # no entry above the diagonal: dice never come back
            assert all(entry == 0 for entry in row[i + 1 :])

    @given(playable)
    def test_float_rows_sum_to_one_tightly(self, params):
        m = build_transition_matrix(params, FLOAT)
        for total in m.row_sums():
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_float_rows_at_large_n(self):
        # C(1100, k) exceeds the double range; Pascal's rule never forms it
        m = build_transition_matrix(GameParams(1100, 2000))
        for k, row in enumerate(m.rows):
            assert all(math.isfinite(entry) for entry in row)
            assert abs(math.fsum(row) - 1) <= k * 2.0**-52, k


class TestRecursiveMoments:
    def test_two_dice_first_moments_by_hand(self):
        # E(T_1) = 2; E(T_2) = (1 + (1/2)*2) / (3/4) = 8/3
        first = second_moments_recursive(GameParams(2, 2), EXACT).first_moments
        assert first[0] == 0
        assert first[1] == 2
        assert first[2] == Fraction(8, 3)

    def test_single_die_takes_s_turns_on_average(self):
        for s in (1, 4, 30):
            first = second_moments_recursive(GameParams(1, s), EXACT).first_moments
            assert first[1] == s

    @given(playable)
    def test_matches_closed_formulas_exactly(self, params):
        profile = second_moments_recursive(params, EXACT)
        assert profile.first_moments[params.n] == expected_value_closed(params, EXACT)
        assert profile.second_moments[params.n] == second_moment_closed(params, EXACT)

    @given(playable)
    def test_moments_grow_with_state(self, params):
        profile = second_moments_recursive(params, EXACT)
        first = profile.first_moments
        second = profile.second_moments
        assert all(a < b for a, b in zip(first[1:], first[2:]))
        assert all(a < b for a, b in zip(second[1:], second[2:]))
        # spread check: E(T^2) >= E(T)^2
        for k in range(1, params.n + 1):
            assert second[k] >= first[k] ** 2

    def test_exact_recursion_equals_closed_moments_on_the_grid(self):
        # every n <= s <= 20, relaxed pairs with more dice than faces, and
        # two pairs whose C(n, k) pass 2**53 and 2**64
        pairs = [(n, s) for s in range(1, 21) for n in range(1, s + 1)]
        for n, s in pairs + [(5, 3), (7, 2), (4, 1), (60, 61), (100, 102)]:
            params = GameParams(n, s, relaxed=n > s)
            profile = second_moments_recursive(params, EXACT)
            closed = moment_report(params, EXACT, "closed")
            assert profile.first_moments[n] == closed.mean, (n, s)
            assert profile.second_moments[n] == closed.second_moment, (n, s)
            assert all(type(value) is Fraction for value in profile.first_moments)
            assert all(type(value) is Fraction for value in profile.second_moments)
            # the report reduces state n only, to the profile's value
            report = moment_report(params, EXACT, "recursive")
            assert report.mean == profile.first_moments[n], (n, s)
            assert report.second_moment == profile.second_moments[n], (n, s)
            assert type(report.mean) is Fraction and type(report.second_moment) is Fraction

    def test_float_recursion_close_to_exact(self):
        for n, s in [(2, 2), (5, 9), (12, 12)]:
            params = GameParams(n, s)
            exact = second_moments_recursive(params, EXACT).first_moments
            approx = second_moments_recursive(params, FLOAT).first_moments
            for a, b in zip(approx[1:], exact[1:]):
                assert a == pytest.approx(float(b), rel=1e-12)

    def test_large_n_agrees_with_the_series(self):
        params = GameParams(1100, 2000)
        recursive = moment_report(params, method="recursive")
        series = moment_report(params, method="series")
        allowed = recursive.error_bound + series.error_bound
        assert abs(recursive.mean - series.mean) <= allowed
        assert abs(recursive.variance - series.variance) <= allowed


class TestAbsorptionByPower:
    @settings(deadline=None)
    @given(playable, st.integers(0, 25))
    def test_exact_power_cdf_equals_closed_cdf(self, params, t):
        assert absorption_cdf_profile(params, t, EXACT)[t] == cdf(params, t, EXACT)

    def test_exact_profile_equals_closed_cdf_on_the_grid(self):
        for s in range(1, 13):
            for n in range(1, s + 1):
                params = GameParams(n, s)
                profile = absorption_cdf_profile(params, 40, EXACT)
                assert all(type(value) is Fraction for value in profile)
                assert profile == [cdf(params, t, EXACT) for t in range(41)], (n, s)

    def test_float_power_cdf_tracks_closed_cdf(self):
        params = GameParams(5, 8)
        for t in (1, 10, 60, 150):
            gap = absorption_cdf_profile(params, t, FLOAT)[t] - cdf(params, t)
            assert abs(gap) < 1e-12

    def test_float_profile_within_its_step_bound(self):
        # P(T <= t) within absorption_step_bound(t) of EXACT, a pmf point
        # (step t minus step t-1) within twice that
        worst = {"cdf": 0.0, "pmf": 0.0}
        for s in range(1, 13):
            for n in range(1, s + 1):
                params = GameParams(n, s)
                profile = absorption_cdf_profile(params, 40, FLOAT)
                exact = [cdf(params, t, EXACT) for t in range(41)]
                for t in range(41):
                    bound = Fraction(absorption_step_bound(params, t))
                    gap = abs(Fraction(profile[t]) - exact[t])
                    assert gap <= bound, ("cdf", n, s, t, float(gap))
                    if bound:
                        worst["cdf"] = max(worst["cdf"], float(gap / bound))
                    if t >= 1:
                        pmf_gap = abs(
                            Fraction(profile[t] - profile[t - 1]) - (exact[t] - exact[t - 1])
                        )
                        assert pmf_gap <= 2 * bound, ("pmf", n, s, t, float(pmf_gap))
                        worst["pmf"] = max(worst["pmf"], float(pmf_gap / (2 * bound)))
        print(f"worst |value - EXACT| / bound: {worst}")

    def test_profile_is_monotone_and_bounded(self):
        values = absorption_cdf_profile(GameParams(4, 6), 80, FLOAT)
        assert len(values) == 81
        assert values[0] == 0.0
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] <= 1.0
        assert values[-1] > 0.999

    def test_exact_power_point_builds_no_profile(self):
        # the point steps the integer state to y and reduces one Fraction;
        # y + 1 reduced Fractions, a whole profile, take about 4.4 MB here
        params, y = GameParams(3, 6), 2000
        tracemalloc.start()
        try:
            value, bound, _ = ROUTES[("cdf", "matrix-power")](params, EXACT, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 0.5e6
        assert value == cdf(params, y, EXACT) and bound == 0
        pmf, _, _ = ROUTES[("pmf", "matrix-power")](params, EXACT, y)
        assert pmf == value - cdf(params, y - 1, EXACT)

    def test_profile_zero_steps(self):
        assert absorption_cdf_profile(GameParams(3, 5), 0, EXACT) == [Fraction(0)]
        with pytest.raises(ValueError):
            absorption_cdf_profile(GameParams(3, 5), -1)


class TestMomentsByPower:
    def test_agrees_with_closed_formulas(self):
        for n, s in [(1, 1), (2, 2), (4, 6), (8, 11)]:
            params = GameParams(n, s)
            report = moment_report(params, method="matrix-power")
            assert report.mean == pytest.approx(
                float(expected_value_closed(params, EXACT)), abs=1e-10
            )
            assert report.second_moment == pytest.approx(
                float(second_moment_closed(params, EXACT)), abs=1e-9
            )
            assert report.error_bound >= 0.0

    def test_exact_mode_is_refused(self):
        # survival sums never terminate exactly; exact callers belong elsewhere
        with pytest.raises(ValueError):
            moment_report(GameParams(2, 3), EXACT, "matrix-power")
