"""Distribution and moment checks for the throw-by-throw evaluators.

The heavyweight oracle here enumerates the game tree literally: every
combination of faces each turn, with exact rational probabilities. It
knows nothing about geometric variables, so agreement with the closed
formulas is a real end-to-end check of the model.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import count, product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from geomax import (
    CANCELLATION_TOLERANCE,
    EXACT,
    FLOAT,
    CancellationError,
    GameParams,
    NumericMode,
    cdf,
    expected_value_closed,
    expected_value_series,
    moment_report,
    moments,
    pair_expected_value,
    pmf,
    quantile,
    second_moment_closed,
    second_moment_series,
    variance_closed,
    var_bounds_elementary,
)
from geomax.kernels import _U, tail_bound_max_geom, tail_bound_weighted_max_geom
from geomax.moments import CLOSED_TERMS, _alternating_sum, _closed_form_terms, _survival_sums


def game_tree_cdf(n: int, s: int, y: int) -> Fraction:
    """P(game over within y turns) by brute enumeration of all face rolls."""

    @lru_cache(maxsize=None)
    def finish_within(alive: int, turns_left: int) -> Fraction:
        if alive == 0:
            return Fraction(1)
        if turns_left == 0:
            return Fraction(0)
        step = Fraction(1, s**alive)
        total = Fraction(0)
        for faces in product(range(1, s + 1), repeat=alive):
            removed = sum(1 for f in faces if f == alive)
            total += step * finish_within(alive - removed, turns_left - 1)
        return total

    return finish_within(n, y)


small_params = st.integers(1, 8).flatmap(
    lambda s: st.integers(1, s).map(lambda n: GameParams(n=n, s=s))
)


class TestDistribution:
    @pytest.mark.parametrize(
        "n,s,y",
        [(2, 2, 1), (2, 2, 2), (2, 2, 3), (1, 3, 2), (2, 3, 2), (3, 3, 3), (3, 3, 0)],
    )
    def test_cdf_matches_game_tree(self, n, s, y):
        params = GameParams(n, s)
        assert cdf(params, y, EXACT) == game_tree_cdf(n, s, y)

    def test_two_dice_two_faces_frozen_values(self):
        params = GameParams(2, 2)
        # game-tree value; both dice gone in one turn 1/4 of the time
        assert cdf(params, 1, EXACT) == Fraction(1, 4)
        assert cdf(params, 2, EXACT) == Fraction(9, 16)
        assert pmf(params, 2, EXACT) == Fraction(5, 16)
        assert pmf(params, 2) == pytest.approx(5 / 16, abs=1e-15)

    def test_cdf_below_support_is_zero(self):
        params = GameParams(3, 4)
        assert cdf(params, 0) == 0.0
        assert cdf(params, -5, EXACT) == 0
        with pytest.raises(ValueError):
            pmf(params, 0)

    @given(small_params, st.integers(1, 60))
    # the grid's heaviest exact pmf points, y = 1, one face, and n > s
    @example(GameParams(34, 39), 161)
    @example(GameParams(20, 40), 144)
    @example(GameParams(60, 61), 60)  # C(60, k) passes 2**53 and 2**64
    @example(GameParams(4, 9), 1)
    @example(GameParams(1, 1), 1)
    @example(GameParams(3, 1, relaxed=True), 2)
    @example(GameParams(7, 5, relaxed=True), 9)
    def test_pmf_telescopes_exactly(self, params, y):
        assert pmf(params, y, EXACT) == cdf(params, y, EXACT) - cdf(params, y - 1, EXACT)

    @settings(max_examples=60)
    @given(small_params, st.integers(1, 200))
    def test_pmf_telescopes_in_float(self, params, y):
        gap = pmf(params, y) - (cdf(params, y) - cdf(params, y - 1))
        assert abs(gap) <= 1e-12

    @given(small_params, st.integers(1, 100))
    def test_cdf_monotone_and_in_unit_interval(self, params, y):
        lo = cdf(params, y, EXACT)
        hi = cdf(params, y + 1, EXACT)
        assert 0 <= lo <= hi <= 1

    @given(small_params, st.integers(1, 40))
    def test_exact_normalization(self, params, y):
        total = sum(pmf(params, t, EXACT) for t in range(1, y + 1))
        assert total + (1 - cdf(params, y, EXACT)) == 1

    def test_float_pmf_within_four_eps_of_exact(self):
        # the accuracy the CLI claims for pmf points, down to values far
        # below the double epsilon at y = 1. The exact law is taken as a cdf
        # difference: cheaper than the exact alternating sum, and equal to it
        # (see the telescoping test)
        for s in range(1, 41):
            for n in range(1, s + 1):
                params = GameParams(n, s)
                for y in (1, 2, 3, 5, 8, 13):
                    exact = cdf(params, y, EXACT) - cdf(params, y - 1, EXACT)
                    gap = abs(Fraction(pmf(params, y)) - exact)
                    assert gap <= Fraction(4 * 2.0**-52), (n, s, y, float(gap))
        assert math.isfinite(pmf(GameParams(1100, 2000), 15000))

    def test_float_cdf_within_four_eps_of_exact(self):
        # the accuracy the CLI claims for cdf points, at large s, where q**y
        # taken as a power of the rounded q missed it by up to 710 eps. The
        # exact law is b**n with b = cdf(GameParams(1, s), y, EXACT); b**n
        # runs to millions of digits at (40, 2000, 32000), so it is bracketed
        # by the n-th powers of b rounded down and up to a multiple of 2**-200
        accuracy = Fraction(4 * 2.0**-52)
        scale = 2**200
        for s in (40, 200, 2000):
            for y in range(s // 2, 16 * s + 1, s // 2):
                scaled = cdf(GameParams(1, s), y, EXACT) * scale
                low = Fraction(math.floor(scaled), scale)
                high = Fraction(math.ceil(scaled), scale)
                for n in (1, 5, 20, 40):
                    value = Fraction(cdf(GameParams(n, s), y))
                    assert value - accuracy <= low**n, (n, s, y)
                    assert high**n <= value + accuracy, (n, s, y)

    def test_float_normalization_spot(self):
        for n, s in [(1, 1), (2, 2), (3, 7), (12, 12)]:
            params = GameParams(n, s)
            total = math.fsum(pmf(params, y) for y in range(1, 201))
            assert abs(total - cdf(params, 200)) <= 1e-12


class TestClosedMoments:
    def test_single_die_mean_is_face_count(self):
        for s in (1, 2, 5, 17, 60):
            assert expected_value_closed(GameParams(1, s), EXACT) == s

    def test_two_dice_frozen_values(self):
        assert expected_value_closed(GameParams(2, 2), EXACT) == Fraction(8, 3)
        assert second_moment_closed(GameParams(2, 2), EXACT) == Fraction(88, 9)
        assert variance_closed(GameParams(2, 2), EXACT) == Fraction(8, 3)
        assert expected_value_closed(GameParams(2, 10), EXACT) == Fraction(280, 19)

    def test_two_dice_identity_across_face_counts(self):
        # closed sum at n=2 collapses to (3s**2 - 2s)/(2s - 1)
        for s in range(2, 41):
            assert expected_value_closed(GameParams(2, s), EXACT) == pair_expected_value(s)

    def test_four_dice_six_faces_float(self):
        assert expected_value_closed(GameParams(4, 6)) == pytest.approx(
            11.926696, abs=5e-6
        )

    def test_one_face_degenerate(self):
        params = GameParams(1, 1)
        assert expected_value_closed(params, EXACT) == 1
        assert variance_closed(params, EXACT) == 0
        assert expected_value_series(params) == 1.0
        assert pmf(params, 1) == 1.0 and pmf(params, 2) == 0.0
        assert cdf(params, 1) == 1.0
        assert quantile(params, 0.42) == 1

    @pytest.mark.parametrize("n", [1, 2, 12, 37, 150, 500, 1100])
    def test_carried_binomials_match_math_comb(self, n):
        # a numerator that records what multiplies it reads off each C(n, k)
        carried = []

        class Numerator:
            def __rmul__(self, c):
                carried.append(c)
                return c

        _alternating_sum(GameParams(n, n), EXACT, lambda a, b: (Numerator(), 1))
        assert carried == [math.comb(n, k) for k in range(1, n + 1)]

    def test_mean_from_game_tree_tail_sum(self):
        # E = sum of survival probabilities; truncate far beyond the bulk
        params = GameParams(2, 2)
        tail_sum = sum(1 - game_tree_cdf(2, 2, y) for y in range(0, 120))
        assert float(tail_sum) == pytest.approx(8 / 3, abs=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(2, 30))
    def test_strictly_increasing_in_dice(self, s):
        n = min(s, 6)
        values = [expected_value_closed(GameParams(k, s), EXACT) for k in range(1, n + 1)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_strictly_increasing_in_faces(self):
        values = [expected_value_closed(GameParams(3, s), EXACT) for s in range(3, 20)]
        assert all(a < b for a, b in zip(values, values[1:]))


#: Every pair n <= s <= 40, plus the points where powers of the rounded q
#: broke the series bound most, (35, 48), the fallback cliff and large s,
#: which also broke the recursion's bound while it took 1 - q**k by
#: subtraction, and (50, 50), the benchmark's heaviest matrix-power point.
SERIES_BOUND_GRID = [(n, s) for s in range(1, 41) for n in range(1, s + 1)] + [
    (35, 48),
    (60, 10**4),
    (4, 2 * 10**4),
    (5, 2 * 10**4),
    (6, 2 * 10**4),
    (5, 10**5),
    (50, 50),
]

#: The O(t n**2) matrix-power route joins the gate up to this face count,
#: and at the largest points where the benchmark runs it.
POWER_BOUND_S_MAX = 12
POWER_BOUND_EXTRA = ((6, 40), (50, 50))


class TestSeriesAgreement:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 20).flatmap(lambda n: st.integers(n, 20).map(lambda s: (n, s))))
    def test_series_matches_closed_float(self, ns):
        params = GameParams(*ns)
        assert abs(expected_value_series(params) - expected_value_closed(params)) < 1e-9
        assert abs(second_moment_series(params) - second_moment_closed(params)) < 1e-9

    def test_exact_mode_routes_to_closed(self):
        params = GameParams(3, 9)
        assert expected_value_series(params, EXACT) == expected_value_closed(params, EXACT)
        assert second_moment_series(params, EXACT) == second_moment_closed(params, EXACT)

    def test_truncation_epsilon_tightens_the_answer(self):
        params = GameParams(4, 11)
        rough = expected_value_series(params, NumericMode("float", truncation_epsilon=1e-4))
        fine = expected_value_series(params, NumericMode("float", truncation_epsilon=1e-14))
        exact = float(expected_value_closed(params, EXACT))
        assert abs(fine - exact) < abs(rough - exact) + 1e-13
        assert abs(fine - exact) < 1e-12

    def test_survival_sums_add_their_bound_parts(self):
        # a source with a constant absolute bound per term: each sum stops at
        # the first t whose tail bound is <= eps, and its bound is the
        # weighted error bounds plus 2u |total| plus that tail bound
        params, eps, error = GameParams(4, 9), 1e-13, 2.0**-60
        exact_terms = _closed_form_terms(params)

        def source(_):
            return lambda t: (exact_terms(t)[0], 0.0, np.full(t.size, error))

        sums = _survival_sums(params, eps, source)
        # weights 1 (mean) and 2t + 1 (second moment)
        for (total, bound), tail, slope in zip(
            sums, (tail_bound_max_geom, tail_bound_weighted_max_geom), (0, 2)
        ):
            stop = next(t for t in count(1) if tail(params.n, params.q, t) <= eps)
            t = np.arange(1, stop, dtype=np.float64)
            weight = slope * t + 1
            assert total == math.fsum([1.0, *(exact_terms(t)[0] * weight).tolist()])
            parts = error * float(np.sum(weight)) + 2 * _U * total
            assert bound == pytest.approx(parts + tail(params.n, params.q, stop), rel=1e-12, abs=0)

    def test_series_error_bound_holds(self):
        # each float route against its own error_bound: the series and the
        # recursion on the whole grid, the closed sums wherever they do not
        # refuse, matrix-power on its small corner and its extra points
        routes = ("closed", "series", "recursive", "matrix-power")
        worst = {method: (0.0, (1, 1)) for method in routes}
        for n, s in SERIES_BOUND_GRID:
            params = GameParams(n, s)
            exact = moment_report(params, EXACT)
            for method in worst:
                power_skipped = s > POWER_BOUND_S_MAX and (n, s) not in POWER_BOUND_EXTRA
                if method == "matrix-power" and power_skipped:
                    continue
                try:
                    report = moment_report(params, method=method)
                except CancellationError:
                    assert method == "closed"
                    continue
                bound = Fraction(report.error_bound)
                for value, truth in (
                    (report.mean, exact.mean),
                    (report.second_moment, exact.second_moment),
                    (report.variance, exact.variance),
                ):
                    gap = abs(Fraction(value) - truth)
                    assert gap <= bound, (method, n, s, float(gap), report.error_bound)
                    if bound:
                        worst[method] = max(worst[method], (float(gap / bound), (n, s)))
        for method, (ratio, where) in worst.items():
            print(f"{method}: worst |value - EXACT| / error_bound = {ratio:.3f} at {where}")


class TestCancellationPolicy:
    def test_large_alternating_sum_refuses_without_fallback(self):
        params = GameParams(45, 45)
        with pytest.raises(CancellationError):
            expected_value_closed(params, fallback=False)
        with pytest.raises(CancellationError):
            second_moment_closed(params, fallback=False)

    def test_fallback_lands_on_series_value(self):
        params = GameParams(45, 45)
        assert expected_value_closed(params) == expected_value_series(params)
        # sanity: the fallback value sits inside the coarse bracket
        assert params.s < expected_value_closed(params) < params.n * params.s

    @pytest.mark.parametrize("n, s", [(29, 29), (30, 30), (31, 31), (32, 32), (35, 48)])
    def test_single_moments_follow_the_report(self, n, s):
        # the mean sum's bound is past the tolerance and, except at (35, 48),
        # the second-moment sum's is not; both moments must still come from
        # one route
        params = GameParams(n, s)
        (mean, mean_err), (m2, m2_err) = (
            _alternating_sum(params, FLOAT, term) for term in CLOSED_TERMS
        )
        assert mean_err > CANCELLATION_TOLERANCE * mean
        assert (m2_err <= CANCELLATION_TOLERANCE * m2) == ((n, s) != (35, 48))
        report = moment_report(params)
        assert expected_value_closed(params) == report.mean
        assert second_moment_closed(params) == report.second_moment
        assert variance_closed(params) == report.variance
        exact = moment_report(params, EXACT).variance
        assert abs(variance_closed(params) - exact) <= report.error_bound
        with pytest.raises(CancellationError):
            second_moment_closed(params, fallback=False)

    def test_fallback_exactly_when_a_closed_bound_is_too_wide(self):
        # the one derived bound per closed sum is also the fallback test; the
        # refusal decided before summing must agree with it everywhere
        pairs = [GameParams(n, s) for s in range(1, 61) for n in range(1, s + 1)]
        pairs += [GameParams(n, s) for n, s in ((900, 2000), (1100, 2000), (1108, 1999), (60, 10**4))]
        pairs += [GameParams(n, s, relaxed=True) for s in (1, 2, 3, 7) for n in range(s + 1, 61)]
        for params in pairs:
            too_wide = any(
                not err <= CANCELLATION_TOLERANCE * abs(value)
                for value, err in (
                    _alternating_sum(params, FLOAT, term) for term in CLOSED_TERMS
                )
            )
            assert (moment_report(params).method == "series") == too_wide, params

    def test_hopeless_sums_are_refused_before_summing(self, monkeypatch):
        calls = []

        def counting(*args):
            calls.append(args[0])
            return _alternating_sum(*args)

        monkeypatch.setattr(moments, "_alternating_sum", counting)
        wide = GameParams(900, 2000)
        assert moment_report(wide).method == "series"
        with pytest.raises(CancellationError, match="n=900, s=2000 lost too much precision"):
            moment_report(wide, method="closed")
        assert calls == []
        # pairs the test cannot settle, and exact mode, still sum
        assert moment_report(GameParams(30, 30)).method == "series"
        moment_report(GameParams(40, 40), EXACT)
        assert calls == [GameParams(30, 30)] * 2 + [GameParams(40, 40)] * 2

    def test_float_overflow_falls_back_to_the_series(self):
        # C(1100, k) * s**k / (s**k - (s-1)**k) passes the double range
        params = GameParams(1100, 2000)
        report = moment_report(params)
        assert report.method == "series"
        lam = -math.log(params.q)
        harmonic = math.fsum(1 / k for k in range(1, params.n + 1))
        # large-n asymptotics (Szpankowski & Rego 1990): H_n / lam + 1/2
        # plus a periodic term far below double precision at s = 2000
        assert report.mean == pytest.approx(harmonic / lam + 0.5, rel=1e-9)
        assert var_bounds_elementary(params).contains(report.variance)
        with pytest.raises(CancellationError):
            moment_report(params, method="closed")

    def test_small_cases_stay_on_closed_path(self):
        # a float evaluation differing from the series by less than the
        # series truncation error implies no fallback occurred
        params = GameParams(2, 2)
        assert expected_value_closed(params, fallback=False) == pytest.approx(
            8 / 3, rel=1e-15
        )
        assert CANCELLATION_TOLERANCE == 1e-9


class TestQuantile:
    def test_frozen_example(self):
        # exact scan oracle: smallest y with (1 - (5/6)**y)**2 >= 99/100
        q = Fraction(5, 6)
        y_oracle = 1
        while (1 - q**y_oracle) ** 2 < Fraction(99, 100):
            y_oracle += 1
        assert y_oracle == 30
        assert quantile(GameParams(2, 6), 0.99) == 30
        assert quantile(GameParams(2, 6), 0.99, EXACT) == 30

    @given(small_params, st.floats(min_value=1e-6, max_value=1 - 1e-9))
    def test_inverse_property(self, params, prob):
        # Fraction-vs-float comparison is exact, so these checks are sharp
        y = quantile(params, prob, EXACT)
        assert y >= 1
        assert cdf(params, y, EXACT) >= prob
        if y > 1:
            assert cdf(params, y - 1, EXACT) < prob

    def test_float_equals_exact_at_near_ties(self):
        # each exact cdf value, rounded, and its two float neighbours: a
        # float cdf that rounds onto prob must not end the walk a turn early
        mismatches = []
        for s in range(2, 13):
            for n in range(1, s + 1):
                params = GameParams(n, s)
                for y in range(1, 60):
                    level = float(cdf(params, y, EXACT))
                    for prob in (math.nextafter(level, 0), level, math.nextafter(level, 1)):
                        if 0 < prob < 1 and quantile(params, prob) != quantile(params, prob, EXACT):
                            mismatches.append((n, s, prob))
        assert mismatches == []

    def test_near_ties_past_the_sweep_and_at_exact_levels(self):
        # round trips at more dice, where the tie is settled on bounds of
        # u = 1 - q**y, and levels that the exact cdf meets exactly
        params = GameParams(100, 100)
        for y in (300, 496, 900):
            prob = cdf(params, y)
            assert quantile(params, prob) == quantile(params, prob, EXACT)
        for params in (GameParams(3, 7), GameParams(3, 8)):
            level = cdf(params, 5, EXACT)
            assert quantile(params, level) == quantile(params, level, EXACT) == 5

    def test_level_extremes_rejected(self):
        params = GameParams(2, 3)
        for prob in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                quantile(params, prob)


class TestRelaxedParameters:
    def test_more_dice_than_faces_needs_opt_in(self):
        with pytest.raises(ValueError):
            GameParams(5, 2)
        params = GameParams(5, 2, relaxed=True)
        mean = expected_value_closed(params, EXACT)
        # more variables only push the maximum up
        assert mean > expected_value_closed(GameParams(2, 2), EXACT)
        assert mean == Fraction(2470, 651)

    def test_relaxed_float_and_series_agree(self):
        params = GameParams(7, 3, relaxed=True)
        assert expected_value_series(params) == pytest.approx(
            float(expected_value_closed(params, EXACT)), abs=1e-10
        )

    def test_invalid_sizes_rejected(self):
        for n, s in [(0, 3), (3, 0), (-1, 2)]:
            with pytest.raises(ValueError):
                GameParams(n, s)
        with pytest.raises(ValueError):
            GameParams(2.0, 3)  # type: ignore[arg-type]
