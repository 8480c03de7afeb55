"""Absorbing-chain cross-checks.

Hand-unrolled two-dice numbers pin the transition rows and the first
recursion step; everything else is checked against the closed formulas,
which share no code with the chain builders.
"""

from __future__ import annotations

import math
import sys
import time
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
from geomax import chain as chain_module
from geomax import params as params_module
from geomax.chain import (
    BLOCK_TURNS,
    _absorption_steps,
    _matrix_bytes,
    _recursion_products,
    _rows_bytes,
    _stacked_rows,
    _survivor_rows,
    _walk_products,
    absorption_step_bound,
)
from geomax.kernels import _U
from geomax.params import MEMORY_BUDGET, TURN_CAP
from geomax.report import ROUTES

playable = st.integers(1, 12).flatmap(
    lambda s: st.integers(1, s).map(lambda n: GameParams(n=n, s=s))
)


def not_called(*args):
    raise AssertionError("called before its budget was checked")


def assert_profile_within_step_bound(params: GameParams, turns, worst: dict) -> None:
    """Float P(T <= t), t in turns, within absorption_step_bound(t) of EXACT, a pmf point within twice that.

    The profile runs to max(turns) in one walk; worst keeps the largest
    gap / bound ratio per point kind. Each comparison cross-multiplies
    integers, as reducing Fractions of a million bits takes seconds.
    """
    profile = absorption_cdf_profile(params, max(turns), FLOAT)
    needed = {*turns, *(t - 1 for t in turns if t >= 1)}
    exact = {t: cdf(params, t, EXACT).as_integer_ratio() for t in needed}
    for t in turns:
        bound = absorption_step_bound(params, t)
        points = [("cdf", profile[t], exact[t], bound)]
        if t >= 1:
            (num, den), (before, below) = exact[t], exact[t - 1]
            pmf = (num * below - before * den, den * below)
            points.append(("pmf", profile[t] - profile[t - 1], pmf, 2 * bound))
        for kind, value, (num, den), allowed in points:
            a, b = value.as_integer_ratio()
            c, d = allowed.as_integer_ratio()
            gap, scaled_bound = abs(a * den - num * b) * d, c * den * b  # over one denominator
            assert gap <= scaled_bound, (kind, params, t, gap / (b * den * d))
            if scaled_bound:
                worst[kind] = max(worst[kind], gap / scaled_bound)


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

    @pytest.mark.parametrize(
        "params, mode, method",
        [(GameParams(3, 2**500), EXACT, "closed"), (GameParams(2000, 2, relaxed=True), FLOAT, "series")],
    )
    def test_float_recursion_at_the_edges_of_a_positive_complement(self, params, mode, method):
        # at s = 2**500 the complements are about k/s, far from 0 yet far
        # below 1; at (2000, 2) the diagonal q**k underflows past k = 1074
        # and the complement is the sum of the entries that do not
        recursive = moment_report(params, method="recursive")
        reference = moment_report(params, mode, method)
        allowed = recursive.error_bound + reference.error_bound
        assert abs(recursive.mean - reference.mean) <= allowed
        assert abs(recursive.second_moment - reference.second_moment) <= allowed

    @pytest.mark.parametrize("e", [1030, 1100])
    def test_float_chain_refuses_a_subnormal_one_over_s(self, e):
        # the float 1/s is subnormal at s = 2**1030 and rounds to 0 at
        # 2**1100; the chain reads it from kernels._float_p, as the float
        # points do
        params = GameParams(3, 2**e)
        for evaluate in (
            lambda: absorption_cdf_profile(params, 5),
            lambda: second_moments_recursive(params),
            lambda: build_transition_matrix(params),
            lambda: moment_report(params, method="recursive"),
        ):
            with pytest.raises(ValueError, match="smallest normal double"):
                evaluate()
        assert absorption_cdf_profile(params, 1, EXACT)[1] == cdf(params, 1, EXACT)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_recursions_past_the_turn_cap_are_refused_at_once(self, mode):
        # rows 0..10**6 hold 500,001,500,001 entries: about 40 minutes of float recursion
        params = GameParams(10**6, 10**6)
        message = "n=1000000 hold 500001500001 entries, past TURN_CAP = 1000000000"
        start = time.perf_counter()
        for call in (
            lambda: moment_report(params, mode, "recursive"),
            lambda: second_moments_recursive(params, mode),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_the_turn_cap_is_compared_with_the_rows_entries(self, monkeypatch, mode):
        params = GameParams(3, 5)  # rows 0..3 hold 1 + 2 + 3 + 4 = 10 entries
        expected = moment_report(params, mode, "recursive")
        monkeypatch.setattr(chain_module, "TURN_CAP", 10)
        if mode.exact:  # its digit products pass a cap this small, so the rows are read
            assert len(list(_survivor_rows(params, mode))) == 4
        else:
            assert moment_report(params, mode, "recursive") == expected
        monkeypatch.setattr(chain_module, "TURN_CAP", 9)
        with pytest.raises(ValueError, match="n=3 hold 10 entries, past TURN_CAP = 9"):
            moment_report(params, mode, "recursive")

    def test_exact_recursion_past_the_turn_cap_in_digit_products_is_refused_at_once(self):
        # at n = 150 the exact recursion took about 2 s, at 300 about 50 s
        params = GameParams(10**4, 10**4)
        message = "exact recursion at n=10000, s=10000 takes up to [0-9]+ digit products, past TURN_CAP"
        start = time.perf_counter()
        for call in (
            lambda: moment_report(params, EXACT, "recursive"),
            lambda: second_moments_recursive(params, EXACT),
        ):
            with pytest.raises(ValueError, match=message):
                call()
        assert time.perf_counter() - start < 1
        assert _recursion_products(GameParams(130, 130)) <= TURN_CAP < _recursion_products(GameParams(131, 131))

    def test_the_turn_cap_is_compared_with_the_recursions_digit_products(self, monkeypatch):
        params = GameParams(5, 7)
        products = _recursion_products(params)
        expected = moment_report(params, EXACT, "recursive")
        monkeypatch.setattr(chain_module, "TURN_CAP", products)
        assert moment_report(params, EXACT, "recursive") == expected
        assert second_moments_recursive(params, EXACT).first_moments[-1] == expected.mean
        monkeypatch.setattr(chain_module, "TURN_CAP", products - 1)
        with pytest.raises(ValueError, match=f"takes up to {products} digit products, past TURN_CAP"):
            moment_report(params, EXACT, "recursive")

    @pytest.mark.parametrize("s", [60, 61, 62])
    def test_exact_recursion_answers_at_the_benchmarks_sizes(self, s):
        params = GameParams(60, s)
        assert moment_report(params, EXACT, "recursive").mean == expected_value_closed(params, EXACT)

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
                assert_profile_within_step_bound(GameParams(n, s), range(41), worst)
        print(f"worst |value - EXACT| / bound: {worst}")

    def test_blocked_float_profile_within_its_step_bound(self):
        # a 201-turn walk steps BLOCK_TURNS = 64 turns per product on every
        # n <= s <= 12, across the block boundaries at t = 64, 128 and 192;
        # at (130, 130) the values at t = 64 and 65, past the first block,
        # need the bound's n + 3 in place of 2t
        assert BLOCK_TURNS == 64
        worst = {"cdf": 0.0, "pmf": 0.0}
        for s in range(1, 13):
            for n in range(1, s + 1):
                assert_profile_within_step_bound(GameParams(n, s), range(201), worst)
        params = GameParams(130, 130)
        assert_profile_within_step_bound(params, (63, 64, 65, 200, 1000), worst)
        # m = t(5n+1) in the first block and once 2t >= n + 3, else t(5n-1) + n + 3
        for t, m in ((63, 63 * 651), (64, 64 * 649 + 133), (66, 66 * 649 + 133), (67, 67 * 651)):
            assert absorption_step_bound(params, t) == m * _U / (1 - m * _U), t
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

    def test_walks_past_the_turn_cap_are_refused_at_once(self):
        params = GameParams(2, 2)
        start = time.perf_counter()
        for mode in (FLOAT, EXACT):
            with pytest.raises(ValueError, match=f"walk needs {10**10} turns, past TURN_CAP"):
                absorption_cdf_profile(params, 10**10, mode)
            for quantity in ("pmf", "cdf"):
                with pytest.raises(ValueError, match=f"needs {10**12} turns, past TURN_CAP"):
                    ROUTES[(quantity, "matrix-power")](params, mode, 10**12)
        assert time.perf_counter() - start < 1
        # a walk of TURN_CAP turns starts; one more turn is refused
        assert next(_absorption_steps(params, FLOAT, TURN_CAP + 1)) == 0.0
        with pytest.raises(ValueError, match="past TURN_CAP"):
            next(_absorption_steps(params, FLOAT, TURN_CAP + 2))

    def test_exact_walks_past_the_turn_cap_in_digit_products_are_refused_at_once(self):
        # extrapolated from 2.4 s at y = 4,000, the point at y = 10**5 would take about 25 minutes
        params = GameParams(10, 10)
        message = "exact chain walk of 100000 turns at n=10, s=10 takes up to [0-9]+ digit products"
        start = time.perf_counter()
        with pytest.raises(ValueError, match=message):
            absorption_cdf_profile(params, 10**5, EXACT)
        for quantity in ("pmf", "cdf"):
            with pytest.raises(ValueError, match=message):
                ROUTES[(quantity, "matrix-power")](params, EXACT, 10**5)
        assert time.perf_counter() - start < 1
        assert _walk_products(params, 3337, 3336) <= TURN_CAP < _walk_products(params, 3338, 3337)
        # a profile reduces a Fraction for each of its turns: about 1 s at y = 1,000
        assert _walk_products(params, 1008, 0) <= TURN_CAP < _walk_products(params, 1009, 0)

    def test_exact_profiles_count_their_fraction_reductions(self):
        # at (1, 2) the walk's products admit a point up to y = 97,833, but a profile's
        # reductions grow as y**3 (2.7 s at y = 32,000, 9.3 s at 64,000): it passes to 7,635
        params, y = GameParams(1, 2), 10**4
        assert ROUTES[("cdf", "matrix-power")](params, EXACT, y)[0] == cdf(params, y, EXACT)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"exact chain walk of {y} turns at n=1, s=2 takes up to"):
            absorption_cdf_profile(params, y, EXACT)
        assert time.perf_counter() - start < 1
        assert _walk_products(params, 7636, 0) <= TURN_CAP < _walk_products(params, 7637, 0)

    @pytest.mark.parametrize("quantity, first", [("cdf", 30), ("pmf", 29), ("profile", 0)])
    def test_the_turn_cap_is_compared_with_the_walks_digit_products(self, monkeypatch, quantity, first):
        params, y = GameParams(4, 9), 30
        products = _walk_products(params, y + 1, first)
        call = {
            "profile": lambda: absorption_cdf_profile(params, y, EXACT)[y],
            "cdf": lambda: ROUTES[("cdf", "matrix-power")](params, EXACT, y)[0],
            "pmf": lambda: ROUTES[("pmf", "matrix-power")](params, EXACT, y)[0],
        }[quantity]
        expected = call()
        monkeypatch.setattr(chain_module, "TURN_CAP", products)
        assert call() == expected
        monkeypatch.setattr(chain_module, "TURN_CAP", products - 1)
        monkeypatch.setattr(chain_module, "_stacked_rows", not_called)
        with pytest.raises(ValueError, match=f"takes up to {products} digit products, past TURN_CAP"):
            call()

    @pytest.mark.parametrize(
        "call",
        [
            lambda p: moment_report(p, method="matrix-power"),
            lambda p: absorption_cdf_profile(p, 3),
            lambda p: absorption_cdf_profile(p, 3, EXACT),
            lambda p: ROUTES[("cdf", "matrix-power")](p, FLOAT, 3),
            lambda p: ROUTES[("pmf", "matrix-power")](p, EXACT, 3),
            lambda p: build_transition_matrix(p),
            lambda p: build_transition_matrix(p, EXACT),
        ],
    )
    def test_matrices_past_the_memory_budget_are_refused_at_once(self, call):
        # at n = 10**6 the (n+1)**2 matrix alone would take 7.28 TiB
        start = time.perf_counter()
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="n=1000000, s=1000000 would take about .* past MEMORY_BUDGET"):
                call(GameParams(10**6, 10**6))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert time.perf_counter() - start < 1
        assert peak < 1e6

    def test_the_budget_admits_the_float_chain_at_2000_dice(self):
        params = GameParams(2000, 2000)
        assert _matrix_bytes(params, FLOAT) == 3 * 8 * 2001**2 <= MEMORY_BUDGET
        assert absorption_cdf_profile(params, 3) == [0.0, 0.0, 0.0, 0.0]
        with pytest.raises(ValueError, match="past MEMORY_BUDGET"):  # its integer entries take 5.96 GB
            absorption_cdf_profile(params, 3, EXACT)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_the_budget_is_compared_before_the_matrix_is_built(self, monkeypatch, mode):
        params = GameParams(30, 40)
        need = _matrix_bytes(params, mode)
        monkeypatch.setattr(params_module, "MEMORY_BUDGET", need)
        assert len(absorption_cdf_profile(params, 3, mode)) == 4
        monkeypatch.setattr(params_module, "MEMORY_BUDGET", need - 1)
        monkeypatch.setattr(chain_module, "_stacked_rows", not_called)
        with pytest.raises(ValueError, match=f"would take about {need} bytes, past MEMORY_BUDGET = {need - 1}"):
            absorption_cdf_profile(params, 3, mode)

    @pytest.mark.parametrize("n, s", [(1, 2), (12, 12), (30, 40), (60, 3)])
    def test_exact_estimate_covers_the_integer_matrix(self, n, s):
        # one 8-byte reference per entry and the lower triangle's ints
        params = GameParams(n, s, relaxed=True)
        matrix = _stacked_rows(params, EXACT)
        held = 8 * matrix.size + sum(sys.getsizeof(entry) for entry in matrix.ravel().tolist() if entry)
        assert held <= _matrix_bytes(params, EXACT)

    @pytest.mark.parametrize(
        "params, mode",
        [
            *((GameParams(n, n), FLOAT) for n in (1, 10, 100, 1000)),
            *((GameParams(n, s), EXACT) for n, s in ((1, 1), (5, 5), (40, 40), (120, 120), (30, 2**40))),
        ],
    )
    def test_rows_estimate_covers_the_traced_peak(self, params, mode):
        build_transition_matrix(params, mode)  # the first call's one-off allocations are not the rows'
        tracemalloc.start()
        try:
            build_transition_matrix(params, mode)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _rows_bytes(params, mode)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_the_rows_budget_is_compared_before_the_matrix_is_built(self, monkeypatch, mode):
        params = GameParams(30, 40)
        need = _rows_bytes(params, mode)
        monkeypatch.setattr(params_module, "MEMORY_BUDGET", need)
        assert len(build_transition_matrix(params, mode).rows) == 31
        monkeypatch.setattr(params_module, "MEMORY_BUDGET", need - 1)
        monkeypatch.setattr(chain_module, "_survivor_rows", not_called)
        message = f"rows at n=30, s=40 would take about {need} bytes, past MEMORY_BUDGET"
        with pytest.raises(ValueError, match=message):
            build_transition_matrix(params, mode)

    @pytest.mark.parametrize("mode", [FLOAT, EXACT])
    def test_matrix_rows_equal_the_walks_matrix(self, mode):
        # the walk's _stacked_rows is the only other construction of the matrix;
        # in exact mode it holds s**n times it
        for s in range(1, 13):
            for n in range(1, s + 1):
                params = GameParams(n, s)
                stacked = _stacked_rows(params, mode).tolist()
                if mode.exact:
                    stacked = [[Fraction(entry, s**n) for entry in row] for row in stacked]
                rows = build_transition_matrix(params, mode).rows
                assert [list(row) for row in rows] == stacked, (n, s)
                assert all(type(entry) is type(rows[0][0]) for row in rows for entry in row)

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
