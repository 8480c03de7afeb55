"""Distribution and moment checks for the throw-by-throw evaluators.

The heavyweight oracle here enumerates the game tree literally: every
combination of faces each turn, with exact rational probabilities. It
knows nothing about geometric variables, so agreement with the closed
formulas is a real end-to-end check of the model.
"""

from __future__ import annotations

import decimal
import math
import runpy
import time
import warnings
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import count, product
from pathlib import Path

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
    MomentReport,
    NumericMode,
    cdf,
    expected_value_closed,
    expected_value_series,
    moment_report,
    moments,
    pair_expected_value,
    pmf,
    quantile,
    report,
    second_moment_closed,
    second_moment_series,
    variance_closed,
    var_bounds_elementary,
)
from geomax.kernels import _U, tail_bound_max_geom, tail_bound_weighted_max_geom
from geomax import chain as chain_module
from geomax import moments as moments_module
from geomax import params as params_module
from geomax.moments import (
    _bracket_power,
    _cdf_bound,
    _cdf_products,
    _closed_form_terms,
    _closed_products,
    _closed_sums,
    _closed_terms,
    _exact_closed_moments,
    _exact_sum,
    _log1mexp,
    _pmf_products,
    _square_products,
    _survival_sums,
)
from geomax.params import TURN_CAP
from geomax.report import MOMENTS, ROUTES

#: README's largest admitted y of the exact (cdf, pmf) points, per (n, s).
README_ADMISSIONS = {
    (40, 40): (21_221, 16_060),
    (100, 100): (7_255, 5_481),
    (12, 12): (79_575, 64_000),
    (2, 2): (1_386_210, 1_170_120),
    (1, 2): (2_771_341, 2_769_662),
    (2, 6): (924_140, 780_080),
}


def not_called(*args):
    raise AssertionError("called before its budget was checked")


#: The quantile levels of scripts/route_snapshot.py.
SNAPSHOT_LEVELS = runpy.run_path(
    str(Path(__file__).parents[1] / "scripts" / "route_snapshot.py")
)["LEVELS"]

#: The closed sums' terms k before the sign and C(n, k), as (numerator,
#: denominator) over a = s**k and b = (s-1)**k: the mean's
#: 1/(1 - q**k) = a/(a - b) and the second moment's
#: (1 + q**k)/(1 - q**k)**2 = (a + b) a/(a - b)**2.
CLOSED_SUM_TERMS = (
    lambda a, b: (a, a - b),
    lambda a, b: ((a + b) * a, (a - b) ** 2),
)

#: Every pair n <= s <= 40, and relaxed pairs n > s up to n = 60.
CLOSED_SUM_PAIRS = [GameParams(n, s) for s in range(1, 41) for n in range(1, s + 1)] + [
    GameParams(n, s, relaxed=True) for s in (1, 2, 3, 7) for n in range(s + 1, 61)
]


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

    def test_exact_points_past_the_turn_cap_are_refused_before_the_first_power(self):
        # at (40, 40) the exact cdf at y = 10**5 took about 7 s; y = 16,060 and
        # 21,221 are the largest pmf and cdf admitted, the pmf in about 1 s
        params = GameParams(40, 40)
        assert _pmf_products(params, 16060) <= TURN_CAP < _pmf_products(params, 16061)
        assert _cdf_products(params, 21221) <= TURN_CAP < _cdf_products(params, 21222)
        # the Karatsuba squares admit at (2, 2) every cdf whose digits the CLI
        # writes, and the count of every bit of y as set ends them at 1,386,210
        assert _cdf_products(GameParams(2, 2), 670_814) <= TURN_CAP
        assert _cdf_products(GameParams(2, 2), 1_386_210) <= TURN_CAP < _cdf_products(GameParams(2, 2), 1_386_211)
        start = time.perf_counter()
        for point, y in ((pmf, 10**5), (cdf, 10**5)):
            message = f"exact {point.__name__} at y={y} for n=40, s=40 takes up to [0-9]+ digit products"
            with pytest.raises(ValueError, match=message):
                point(params, y, EXACT)
        assert time.perf_counter() - start < 1

    @pytest.mark.parametrize("count", [_cdf_products, _pmf_products])
    def test_the_points_counts_never_fall_as_y_grows(self, count):
        # so TURN_CAP ends each point at one y: counting the products by s of
        # the set bits of y only, the cdf at (2, 2) was refused at
        # y = 1,386,239 and admitted at 169 larger y up to 1,386,752
        scans = {
            (2, 2): range(1_385_000, 1_388_000),
            (40, 40): range(20_000, 23_000),
            (1, 2): range(1, 1 << 14),
            (3, 7): range(1, 1 << 14),
        }
        for (n, s), ys in scans.items():
            counts = [count(GameParams(n, s), y) for y in ys]
            assert counts == sorted(counts), (n, s)

    def test_readme_admission_figures_come_from_the_counts(self):
        # the counts never fall as y grows, so the largest admitted y is one
        # bisection; README's table of them must move with the counts
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        for (n, s), figures in README_ADMISSIONS.items():
            params = GameParams(n, s)
            largest = tuple(
                moments._first_true(lambda y: products(params, y) > TURN_CAP, 0, 1 << 22) - 1
                for products in (_cdf_products, _pmf_products)
            )
            assert largest == figures, (n, s)
            assert f"| ({n}, {s}) | {figures[0]:,} | {figures[1]:,} |" in readme, (n, s)

    def test_points_at_astronomic_turns_are_refused(self):
        # the count's Karatsuba recursion went one level deeper per bit of
        # the int, past the interpreter's recursion limit at y = 2**1000
        for point in (pmf, cdf):
            with pytest.raises(ValueError, match="past TURN_CAP"):
                point(GameParams(2, 4), 2**1000, EXACT)

    def test_squares_past_the_karatsuba_cutoff_count_less_than_schoolbook(self):
        counted = {}
        squares = [_square_products(c, counted) for c in range(1, 3000)]
        assert squares == sorted(squares)  # a bound for c digits holds for fewer
        for c, products in enumerate(squares, start=1):
            schoolbook = c * (c + 1) // 2
            assert products == schoolbook if c <= 140 else products < schoolbook

    @pytest.mark.parametrize("point, count", [(pmf, "_pmf_products"), (cdf, "_cdf_products")])
    def test_the_turn_cap_is_compared_with_the_points_digit_products(self, monkeypatch, point, count):
        params = GameParams(5, 7)
        products = getattr(moments_module, count)(params, 9)
        expected = point(params, 9, EXACT)
        monkeypatch.setattr(params_module, "TURN_CAP", products)
        assert point(params, 9, EXACT) == expected
        monkeypatch.setattr(params_module, "TURN_CAP", products - 1)
        with pytest.raises(ValueError, match=f"takes up to {products} digit products, past TURN_CAP"):
            point(params, 9, EXACT)

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
        # difference, which the exact pmf equals (see the telescoping test)
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

    @pytest.mark.parametrize(
        "quantity, n, s, y",
        [
            pytest.param("cdf", 10**4, 10**4, 95_000, id="10000-10000-95000"),
            pytest.param("cdf", 10**6, 10**9, 14_095_274_639, id="1000000-1000000000-14095274639"),
            pytest.param(
                "cdf", 10**12, 10**15, 27_631_021_115_929_035, id="1000000000000-1000000000000000-27631021115929035"
            ),
            # float(y) overflows; y lam = -4 comes from y's top 53 bits
            pytest.param("cdf", 2, 2**1022, 2**1024, id="2-2**1022-2**1024"),
            # relaxed pairs near the median, where an n-th power of a rounded
            # base missed the 8u once printed for every pmf point by up to
            # 6.7e9 times (10**12, 3) at y = 68
            pytest.param("pmf", 1000, 3, 18, id="pmf-1000-3-18"),
            pytest.param("pmf", 10**4, 40, 379, id="pmf-10000-40-379"),
            pytest.param("pmf", 10**12, 3, 68, id="pmf-10**12-3-68"),
            pytest.param("pmf", 10**18, 2, 61, id="pmf-10**18-2-61"),
        ],
    )
    def test_float_cdf_prints_a_bound_that_holds_at_large_n(self, quantity, n, s, y):
        # near the median the float cdf errs by 1.49u, 9.67u and 21.6u: the
        # 8u printed before the bound was derived missed the last two. The
        # exact law lies in _bracket_power's brackets, narrowed until they
        # are a tenth of the bound wide; a pmf lies between lo_y - hi_(y-1)
        # and hi_y - lo_(y-1) of the cdf's brackets at y and y - 1
        params = GameParams(n, s, relaxed=True)
        value, bound, _ = ROUTES[(quantity, "closed")](params, FLOAT, y)

        def bracket(y: int, k: int) -> tuple[Fraction, Fraction]:
            q_lo, q_hi = _bracket_power(((s - 1) << k) // s, -(-((s - 1) << k) // s), y, k)
            return tuple(Fraction(b, 1 << k) for b in _bracket_power((1 << k) - q_hi, (1 << k) - q_lo, n, k))

        k = 64
        while True:
            lo, hi = bracket(y, k)
            if quantity == "pmf":
                below_lo, below_hi = bracket(y - 1, k)
                lo, hi = lo - below_hi, hi - below_lo
            if hi - lo < Fraction(bound) / 10:
                break
            k *= 2
        assert max(Fraction(value) - lo, hi - Fraction(value)) <= bound

    def test_log1mexp_array_path_matches_the_scalar_path(self):
        # whichever side of -ln 2 holds most entries, each entry takes its
        # own side's formula: bit for bit its value as a one-entry array,
        # and within the 5u of _log1mexp's analysis of the scalar path's,
        # as numpy's vectorized exp and log1p differ from libm's by an ulp
        # on some entries
        ln2 = math.log(2)
        near = -np.geomspace(1e-300, ln2, 400, endpoint=False)
        far = -np.geomspace(ln2, 740, 400)[1:]
        edges = [-ln2, -ln2, math.nextafter(-ln2, 0), math.nextafter(-ln2, -1), -math.inf, -math.inf]
        # falling, as a series block t lam is: the near side a leading slice,
        # here with -ln 2 and its two neighbours in their places
        lam = math.log1p(-1 / 1000)  # t lam crosses -ln 2 near t = 693
        blocks = [np.sort(np.r_[np.arange(1.0, size) * lam, edges[:4]])[::-1] for size in (1001, 2001)]
        for x, most_near in (
            (np.r_[near, far[::8], edges], True),
            (np.r_[near[::8], far, edges], False),
            (blocks[0], True),
            (blocks[1], False),
        ):
            assert (2 * np.count_nonzero(x > -ln2) > x.size) == most_near
            with np.errstate(divide="ignore"):  # log1p(-1) on the near entries, before they are fixed
                values = _log1mexp(x)
            assert values.tolist() == [_log1mexp(x[i : i + 1])[0] for i in range(x.size)]
            scalar = np.array([_log1mexp(float(v)) for v in x])
            assert np.all(np.abs(values - scalar) <= 10 * _U * np.abs(scalar))

    def test_float_points_past_the_doubles(self):
        # float(2**1100) overflows: the cdf is 1 to the last bit, the pmf 0
        params = GameParams(2, 4)
        assert (cdf(params, 2**1100), pmf(params, 2**1100)) == (1.0, 0.0)
        assert _cdf_bound(params, 2**1100, 1.0) == 3 * _U + 2.0**-1073

    def test_float_cdf_bound_holds_against_exact(self):
        # and the pmf's, on every n <= s <= 12 and three relaxed pairs, the
        # exact pmf taken as the exact cdf's difference
        relaxed = [GameParams(n, s, relaxed=True) for n, s in ((7, 5), (10, 6), (3, 1))]
        for params in [GameParams(n, s) for s in range(1, 13) for n in range(1, s + 1)] + relaxed:
            below = Fraction(0)
            for y in range(-1, 201):
                exact = cdf(params, y, EXACT)
                value, bound, _ = ROUTES[("cdf", "closed")](params, FLOAT, y)
                assert abs(Fraction(value) - exact) <= bound, (params, y)
                if y >= 1:
                    value, bound, _ = ROUTES[("pmf", "closed")](params, FLOAT, y)
                    assert abs(Fraction(value) - (exact - below)) <= bound, (params, y, "pmf")
                below = exact

    def test_float_cdf_where_q_to_the_y_rounds_to_one(self):
        # at s = 2**60, exp(y log1p(-1/s)) rounds to 1.0 for small y, and
        # log1p(-1.0) is a domain error
        params = GameParams(2, 2**60)
        for y in (1, 5):
            assert math.exp(y * math.log1p(-1.0 / params.s)) == 1.0
            exact = cdf(params, y, EXACT)
            assert abs(Fraction(cdf(params, y)) - exact) <= exact * Fraction(1, 10**13), y

    @pytest.mark.parametrize("s", [6, 2000, 2**30, 2**60])
    def test_float_cdf_relative_error_in_the_lower_tail(self, s):
        # cdf's bound from _closed_form_terms' analysis: fl(y lam) carries 5u
        # and expm1 or exp 2u, which log(1 - q**y) passes on at most once, so
        # it errs by (7 + 2|log(1 - q**y)|)u; the product with n and exp add
        # u|ln P| and 2u, so P errs by at most (7n + 3|ln P| + 2)u relative
        n = 2
        params = GameParams(n, s)
        for y in (1, 3, 10, 30, 100, 300, 1000, 3000, 10**4):
            exact = cdf(params, y, EXACT)
            bound = Fraction((7 * n + 3 * abs(math.log(exact)) + 2) * _U)
            assert abs(Fraction(cdf(params, y)) - exact) <= bound * exact, (s, y)

    @pytest.mark.parametrize("s", [2**1030, 2**1100])
    def test_float_points_refuse_a_subnormal_one_over_s(self, s):
        # 1/s below the smallest normal double carries too few bits for the
        # float bounds; at 2**1100 it rounds to 0
        params = GameParams(2, s)
        for evaluate, point in ((cdf, 5), (pmf, 1), (pmf, 5), (quantile, 0.5)):
            with pytest.raises(ValueError, match="smallest normal double"):
                evaluate(params, point)

    @pytest.mark.parametrize("params", [GameParams(1, 1), GameParams(3, 1, relaxed=True)])
    def test_float_points_at_one_face_equal_exact(self, params):
        # q = 0 exactly, so log q is -inf and every game ends on turn 1
        for y in range(4):
            assert cdf(params, y) == cdf(params, y, EXACT)
        for y in range(1, 4):
            assert pmf(params, y) == pmf(params, y, EXACT)
        for prob in (1e-300, 0.42, 1 - 2**-53):
            assert quantile(params, prob) == quantile(params, prob, EXACT) == 1

    def test_float_points_at_the_last_normal_powers(self):
        params = GameParams(2, 2**1000)
        assert cdf(params, 5) == 0.0
        assert pmf(params, 5) == 0.0

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
        expected = []
        for k in range(1, n + 1):
            a, b, p = n**k, (n - 1) ** k, (-1) ** (k + 1) * math.comb(n, k) * n**k
            expected.append((a - b, p, p * (a + b)))
        assert list(_closed_terms(GameParams(n, n))) == expected

    def test_exact_kernel_matches_the_fraction_sums(self):
        # the reference sums one reduced Fraction per term, as each closed
        # sum reads, and takes the variance as m2 - mean**2
        for params in CLOSED_SUM_PAIRS + [GameParams(150, 151)]:
            n, s = params.n, params.s
            mean, m2 = (
                sum(
                    (
                        Fraction((-1) ** (k + 1) * math.comb(n, k) * num, den)
                        for k in range(1, n + 1)
                        for num, den in [term(s**k, (s - 1) ** k)]
                    ),
                    Fraction(0),
                )
                for term in CLOSED_SUM_TERMS
            )
            assert _exact_closed_moments(params) == (mean, m2, m2 - mean**2), params

    def test_exact_closed_sums_past_the_turn_cap_are_refused_before_the_terms(self, monkeypatch):
        # n = s = 223 passes (about 0.3 s on a 2-vCPU Xeon VM), and at
        # 2000, about 40 minutes of sums, the count is refused at once
        assert _closed_products(GameParams(223, 223)) <= TURN_CAP < _closed_products(GameParams(224, 224))
        monkeypatch.setattr(moments_module, "_closed_terms", not_called)
        for params in (GameParams(224, 224), GameParams(2000, 2000), GameParams(16, 10**4299)):
            message = f"exact closed sums at n={params.n}, s={params.s} takes up to [0-9]+ digit products"
            start = time.perf_counter()
            for call in (lambda: _exact_closed_moments(params), lambda: moment_report(params, EXACT)):
                with pytest.raises(ValueError, match=message):
                    call()
            assert time.perf_counter() - start < 1

    def test_the_turn_cap_is_compared_with_the_closed_sums_digit_products(self, monkeypatch):
        params = GameParams(5, 7)
        products = _closed_products(params)
        expected = _exact_closed_moments(params)
        monkeypatch.setattr(params_module, "TURN_CAP", products)
        assert _exact_closed_moments(params) == expected
        monkeypatch.setattr(params_module, "TURN_CAP", products - 1)
        with pytest.raises(ValueError, match=f"takes up to {products} digit products, past TURN_CAP"):
            moment_report(params, EXACT, "closed")

    @pytest.mark.parametrize("s", range(150, 155))
    def test_exact_closed_sums_answer_at_the_benchmarks_sizes(self, s):
        # cliffs' exact closed class, well inside TURN_CAP digit products
        params = GameParams(150, s)
        report = moment_report(params, EXACT, "closed")
        series = moment_report(params, method="series")
        assert abs(report.mean - Fraction(series.mean)) <= series.error_bound

    def test_float_kernel_matches_the_rounded_terms_bit_for_bit(self):
        # each term rounded once from its reduced Fraction, each sum an fsum,
        # each bound u(1 + 4u)(F + |value|) with F = fsum(|p_k|)
        for params in CLOSED_SUM_PAIRS:
            n, s = params.n, params.s
            expected = []
            for term in CLOSED_SUM_TERMS:
                pieces = [
                    float(Fraction((-1) ** (k + 1) * math.comb(n, k) * num, den))
                    for k in range(1, n + 1)
                    for num, den in [term(s**k, (s - 1) ** k)]
                ]
                value = math.fsum(pieces)
                bound = _U * (1 + 4 * _U) * (math.fsum(map(abs, pieces)) + abs(value))
                expected.append((value, bound))
            assert _closed_sums(params) == tuple(expected), params

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
#: subtraction, (50, 50), the benchmark's heaviest matrix-power point,
#: (200, 300), where the series' closed tail starts past a long head,
#: (200, 200), where the chain's blocks start past the step bound's n + 3,
#: and (2, 4000), whose walk runs 243,993 survival terms down to 1e-27.
SERIES_BOUND_GRID = [(n, s) for s in range(1, 41) for n in range(1, s + 1)] + [
    (35, 48),
    (60, 10**4),
    (4, 2 * 10**4),
    (5, 2 * 10**4),
    (6, 2 * 10**4),
    (5, 10**5),
    (50, 50),
    (200, 300),
    (200, 200),
    (2, 4000),
]

#: The matrix-power route joins the gate up to this face count, at the
#: largest points where the benchmark runs it, at (200, 200) and at (2, 4000).
POWER_BOUND_S_MAX = 40
POWER_BOUND_EXTRA = ((6, 40), (50, 50), (200, 200), (2, 4000))


def weighted_head_block(n: int, s: int, start: int = 1) -> np.ndarray:
    """The series' (2t+1)-weighted terms for one block of SERIES_BLOCK turns from start."""
    t = np.arange(start, start + moments.SERIES_BLOCK, dtype=np.float64)
    return _closed_form_terms(GameParams(n, s))(t)[0] * (2 * t + 1)


def small_negatives_block(rng: np.random.Generator) -> np.ndarray:
    # terms up to 10**4 falling away, and about half of them replaced by
    # -1e-20 to -1e-5, as 1 - P(T <= t) rounds past 1 at (2, 4000): their
    # total matters
    block = 1e4 * np.exp(-np.arange(moments.SERIES_BLOCK) / 2000.0)
    negative = rng.random(block.size) < 0.5
    block[negative] = -(10.0 ** rng.uniform(-20, -5, negative.sum()))
    return block


def walk_block(n: int, s: int, index: int) -> np.ndarray:
    """The chain's (2t+1)-weighted survival terms for block `index` of SERIES_BLOCK turns from t = 1.

    At (2, 4000) the terms of block 7 fall over six orders of magnitude.
    """
    starts = range(1, (index + 1) * moments.SERIES_BLOCK + 1, moments.SERIES_BLOCK)
    terms_of = chain_module._survival_terms(GameParams(n, s), starts[-1] + moments.SERIES_BLOCK)
    for start in starts:
        t = np.arange(start, start + moments.SERIES_BLOCK, dtype=np.float64)
        terms = terms_of(t)[0]
    return terms * (2 * t + 1)


def near_top_block(top: float, size: int, rng: np.random.Generator) -> np.ndarray:
    # every partial sum of the same-signed values runs up to size * top
    block = top * (1 - rng.random(size) * 2.0**-30)
    block[0] = top
    return block


#: Blocks for _exact_sum, each built from a seeded generator.
EXACT_SUM_BLOCKS = {
    "empty": lambda rng: np.zeros(0),
    "one": lambda rng: rng.standard_normal(1),
    "two": lambda rng: rng.standard_normal(2),
    "full block": lambda rng: rng.standard_normal(moments.SERIES_BLOCK),
    "zeros": lambda rng: np.zeros(moments.SERIES_BLOCK),
    "smallest subnormal": lambda rng: np.full(moments.SERIES_BLOCK, 5e-324),
    "subnormals": lambda rng: rng.integers(-(2**52), 2**52, moments.SERIES_BLOCK) * 5e-324,
    "normals and subnormals": lambda rng: np.concatenate(
        [rng.integers(-(2**52), 2**52, 100) * 5e-324, np.ldexp(rng.random(100), -1000)]
    ),
    "over 2000 binades": lambda rng: rng.choice([-1.0, 1.0], moments.SERIES_BLOCK)
    * np.ldexp(1 + rng.random(moments.SERIES_BLOCK), rng.integers(-1074, 1000, moments.SERIES_BLOCK)),
    "N top at a power of two": lambda rng: near_top_block(2.0**-3, moments.SERIES_BLOCK, rng),
    "N top just below a power of two": lambda rng: near_top_block(
        math.nextafter(2.0**-3, 0), moments.SERIES_BLOCK, rng
    ),
    "N top rounding up to a power of two": lambda rng: near_top_block(2 / 3, 3, rng),  # fl(3 top) = 2
    "negative N top at a power of two": lambda rng: -near_top_block(1.0, moments.SERIES_BLOCK - 1, rng),
    "weighted head": lambda rng: weighted_head_block(4, 20_000),
    "weighted head, later block": lambda rng: weighted_head_block(6, 20_000, 1 + 2 * moments.SERIES_BLOCK),
    "small negatives": small_negatives_block,
    # rounds from sigma = 2**-935 down past the smallest normal double
    "rounds into the subnormals": lambda rng: rng.choice([-1.0, 1.0], moments.SERIES_BLOCK)
    * np.ldexp(1 + rng.random(moments.SERIES_BLOCK), rng.integers(-1074, -950, moments.SERIES_BLOCK)),
    "walk at (2, 4000)": lambda rng: walk_block(2, 4000, 7),
    # 1 + 2**-52 + 2**-53 is a tie, rounded to even; the tiny negative sends
    # the exact sum below it, to 1 + 2**-52, only if it is not rounded away
    "tie broken by a tiny negative": lambda rng: np.array([1 + 2.0**-52, 2.0**-53, -(2.0**-200)]),
}


class TestExactSum:
    # every block but the empty one is also extracted below EXTRACT_FROM
    @pytest.mark.parametrize("extract_from", [1, moments.EXTRACT_FROM])
    @pytest.mark.parametrize("name", EXACT_SUM_BLOCKS)
    def test_equals_fsum(self, monkeypatch, name, extract_from):
        monkeypatch.setattr(moments, "EXTRACT_FROM", extract_from)
        block = EXACT_SUM_BLOCKS[name](np.random.default_rng(2308))
        assert block.size <= moments.SERIES_BLOCK
        got, want = _exact_sum(block), math.fsum(block.tolist())
        assert got == want, (got.hex(), want.hex())

    @pytest.mark.parametrize(
        "values", [[math.inf, 1.0], [math.nan, 1.0], [math.inf, -math.inf], [1e308, 1e308, -1e308]]
    )
    def test_past_its_domain_does_what_fsum_does(self, monkeypatch, values):
        # fsum returns inf or nan, or raises on inf - inf and on an overflow
        # it cannot undo; the extraction would never end on these
        monkeypatch.setattr(moments, "EXTRACT_FROM", 1)
        outcomes = []
        for call in (lambda: _exact_sum(np.array(values)), lambda: math.fsum(values)):
            try:
                outcomes.append(repr(call()))
            except (OverflowError, ValueError) as exc:
                outcomes.append(repr(exc))
        assert outcomes[0] == outcomes[1]

    def test_leaves_its_input_alone(self):
        block = small_negatives_block(np.random.default_rng(5))
        before = block.copy()
        _exact_sum(block)
        assert np.array_equal(block, before)

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.lists(st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False), max_size=64))
    def test_extraction_equals_fsum_on_drawn_values(self, values):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(moments, "EXTRACT_FROM", 1)
            assert _exact_sum(np.array(values, dtype=np.float64)) == math.fsum(values)


@lru_cache
def exact_report(n: int, s: int):
    return moment_report(GameParams(n, s), EXACT)


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
        # a source with a constant relative bound per term: each sum stops at
        # the first t whose tail bound is <= eps, and its bound is the
        # weighted error bounds plus 2u |total| plus that tail bound
        params, eps, error = GameParams(4, 9), 1e-13, 2.0**-40
        exact_terms = _closed_form_terms(params)

        def source(_, stop):
            return lambda t: (exact_terms(t)[0], error)

        sums = _survival_sums(params, eps, source, moments._geometric_tail)
        # weights 1 (mean) and 2t + 1 (second moment)
        for (total, bound), tail, slope in zip(
            sums, (tail_bound_max_geom, tail_bound_weighted_max_geom), (0, 2)
        ):
            stop = next(t for t in count(1) if tail(params.n, params.q, t) <= eps)
            t = np.arange(1, stop, dtype=np.float64)
            values = (exact_terms(t)[0] * (slope * t + 1)).tolist()
            assert total == math.fsum([1.0, *values])
            parts = error * math.fsum(values) + 2 * _U * total
            assert bound == pytest.approx(parts + tail(params.n, params.q, stop), rel=1e-12, abs=0)

    def test_chain_terms_are_live_mass_within_their_bound_of_the_closed_terms(self):
        # at (2, 4000) the walk runs 243,993 terms, down to about 1e-27; each
        # is the mass on the live states, so none rounds below 0, and each
        # lies within its relative bound plus the series term's bound of the
        # closed form's term
        params = GameParams(2, 4000)
        stop = max(stop for stop, _, _ in moments._geometric_tail(params, 1e-13))
        assert stop == 243_994
        chain_terms, closed_terms = chain_module._survival_terms(params, stop), _closed_form_terms(params)
        for start in range(1, stop, moments.SERIES_BLOCK):
            t = np.arange(start, min(start + moments.SERIES_BLOCK, stop), dtype=np.float64)
            (terms, relative), (closed, closed_relative) = chain_terms(t), closed_terms(t)
            assert (terms >= 0).all(), start
            assert (np.abs(terms - closed) <= relative * terms + closed_relative * closed).all(), start
        assert terms[-1] < 1e-26

    @pytest.mark.parametrize(
        "n, s, split", [(1, 2, 1), (1, 3, 2), (4, 20_000, 41_588), (60, 10**4, 47_873), (200, 300, 1_795)]
    )
    @pytest.mark.parametrize("eps", [1e-13, 1e-6])
    def test_series_splits_into_head_and_closed_tail(self, n, s, split, eps):
        # the head stops at the first t >= 1 with n q**t <= 1/2 ((1, 2) has
        # no head), the closed tail sums the rest, and the series stays
        # within its bound of EXACT at a fine and at a coarse truncation
        params = GameParams(n, s)
        lam = math.log1p(-1 / s)
        assert n * math.exp(split * lam) <= moments.SERIES_SPLIT
        assert split == 1 or n * math.exp((split - 1) * lam) > moments.SERIES_SPLIT
        assert [stop for stop, _, _ in moments._closed_tail(params, eps)] == [split, split]
        exact = exact_report(n, s)
        got = moment_report(params, NumericMode("float", truncation_epsilon=eps), "series")
        for quantity in ("mean", "second_moment", "variance"):
            gap = abs(Fraction(getattr(got, quantity)) - getattr(exact, quantity))
            assert gap <= Fraction(got.error_bound), (quantity, float(gap), got.error_bound)

    @pytest.mark.parametrize("n, s, eps", [(10, 10, 1e-13), (40, 40, 1e-6)])
    def test_closed_tails_end_at_one_cut(self, n, s, eps):
        # the mean's terms fall to eps before the second moment's do (at
        # (10, 10) only at j = n, where the second moment's never do); both
        # tails keep their terms up to the second moment's cut, and the
        # mean's truncation is its own term there
        (split, mean, mean_bound), (_, m2, _) = moments._closed_tail(GameParams(n, s), eps)
        lam = math.log1p(-1 / s)
        q_split, step = math.exp(split * lam), (5 * split * abs(lam) + 6) * _U
        c, means, seconds = 1.0, [], []
        for j in range(1, n + 1):
            c *= (n - j + 1) / j * q_split
            d = -math.expm1(j * lam)
            means.append(c / d)
            seconds.append(c / d * ((2 * split + 1) + 2 * math.exp(j * lam) / d))
        cut = next((j for j, term in enumerate(seconds, 1) if term <= eps), n + 1)
        assert next(j for j, term in enumerate(means, 1) if term <= eps) < cut
        for value, terms in ((mean, means), (m2, seconds)):
            assert value == math.fsum(term if j % 2 else -term for j, term in enumerate(terms[: cut - 1], 1))
        relative = [j * step + 8 * _U for j in range(1, n + 1)]
        evaluation = math.fsum(term * r for term, r in zip(means[: cut - 1], relative))
        truncation = means[cut - 1] * (1 + relative[cut - 1]) if cut <= n else 0.0
        assert mean_bound == evaluation + _U * abs(mean) + truncation

    def test_series_refuses_where_q_rounds_to_one(self):
        # the head would take about s ln(2n) terms; auto still has the closed sums
        params = GameParams(2, 2**60)
        with pytest.raises(ValueError, match=f"series at s={2**60}"):
            moment_report(params, method="series")
        assert moment_report(params).method == "closed-alternating"

    @pytest.mark.parametrize(
        "n, s, method, walk",
        [
            (2, 2**40, "series", "series"),
            (40, 2**35, "auto", "series"),
            (2, 2**35, "matrix-power", "matrix-power"),
            (60, 2**1022, "series", "series"),
            (60, 2**1022, "auto", "series"),
            (3, 2**60, "matrix-power", "matrix-power"),
        ],
    )
    def test_walks_past_the_turn_cap_are_refused_at_once(self, n, s, method, walk):
        # the head or the chain would take 10**11 or more steps; auto at
        # (40, 2**35) and (60, 2**1022) falls back from the closed sums to
        # the series; at s = 2**1022 the stop search must refuse before t
        # lam overflows, and at (3, 2**60) the float q rounds to 1
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"{walk} at s={s} needs \\d+ .* past TURN_CAP"):
            moment_report(GameParams(n, s), method=method)
        assert time.perf_counter() - start < 1.0

    def test_stop_search_refuses_past_the_turn_cap(self):
        # a stop past 2**30 is refused once the doubling reaches 2**30, with
        # no bound taken past it, naming the first turn known to pass the
        # cap; a stop in (TURN_CAP, 2**30] after the bisection, by its exact
        # value; one within the cap is returned
        for stop, needs in ((math.inf, 2**30 + 1), (TURN_CAP + 5, TURN_CAP + 5)):
            points = []
            with pytest.raises(ValueError, match=f"walk needs {needs} turns, past TURN_CAP"):
                moments._first_at_most(lambda t: points.append(t) or t < stop, 0.5, "walk")
            assert max(points) == 2**30
        assert moments._first_at_most(lambda t: t < TURN_CAP, 0.5, "walk") == TURN_CAP

    @pytest.mark.parametrize("method, tail", [("series", "_closed_tail"), ("matrix-power", "_geometric_tail")])
    def test_the_turn_cap_is_compared_with_the_stop(self, monkeypatch, method, tail):
        # the stop search reads TURN_CAP from params when it runs: under a
        # cap at the later stop the report is unchanged, one turn less
        # refuses it, naming that stop
        params, eps = GameParams(3, 50), FLOAT.truncation_epsilon
        stop = max(stop for stop, _, _ in getattr(moments, tail)(params, eps))
        expected = moment_report(params, method=method)
        monkeypatch.setattr(params_module, "TURN_CAP", stop)
        assert moment_report(params, method=method) == expected
        monkeypatch.setattr(params_module, "TURN_CAP", stop - 1)
        with pytest.raises(ValueError, match=f"s=50 needs {stop} turns, past TURN_CAP = {stop - 1}"):
            moment_report(params, method=method)

    def test_first_true_bisects_a_monotone_test(self):
        for lo, hi in ((0, 1), (0, 2), (-5, 17), (3, 1000)):
            for first in range(lo + 1, hi + 1):
                points = []
                assert moments._first_true(lambda t: points.append(t) or t >= first, lo, hi) == first
                assert all(lo < t < hi for t in points)
                assert len(points) <= (hi - lo).bit_length()
        # an empty bracket returns hi without calling the test
        assert moments._first_true(not_called, 7, 8) == 8

    @pytest.mark.parametrize("e", [511, 600])
    def test_float_reports_past_the_double_range_are_refused(self, e):
        # the recursion's E(Y**2) overflows to inf at s = 2**511 and to nan
        # at 2**600, and its bound with it; numpy warns of neither
        message = f"recursive route at s={2**e} leaves the double range"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                moment_report(GameParams(3, 2**e), method="recursive")

    def test_series_error_bound_holds(self, monkeypatch):
        # every route of report.ROUTES against its own error_bound, EXACT the
        # truth: the moments on the grid (closed wherever it does not refuse,
        # matrix-power on its small corner and its extra points), the pmf and
        # cdf points on n <= s <= 12 for y <= 40, and the quantiles, whose
        # bound is 0, at the route snapshot's levels
        assert {q for q, _ in ROUTES} == {*MOMENTS, "pmf", "cdf", "quantile"}
        # the three moment routes of a method read one report
        monkeypatch.setattr(report, "moment_report", lru_cache(report.moment_report))
        worst = {}

        def check(key, params, point, truth):
            try:
                value, bound, _ = ROUTES[key](params, FLOAT, point)
            except CancellationError:
                assert key[1] == "closed"
                return
            gap, bound = abs(Fraction(value) - truth), Fraction(bound)
            assert gap <= bound, (key, params, point, float(gap), float(bound))
            ratio = (float(gap / bound) if bound else 0.0, (params.n, params.s, point))
            worst[key] = max(worst.get(key, ratio), ratio, key=lambda r: r[0])

        for n, s in SERIES_BOUND_GRID:
            params = GameParams(n, s)
            exact = moment_report(params, EXACT)
            power_skipped = s > POWER_BOUND_S_MAX and (n, s) not in POWER_BOUND_EXTRA
            for quantity, method in ROUTES:
                if quantity in MOMENTS and not (method == "matrix-power" and power_skipped):
                    truth = getattr(exact, quantity.replace("-", "_"))
                    check((quantity, method), params, None, truth)
        for params in (GameParams(n, s) for s in range(1, 13) for n in range(1, s + 1)):
            for y in range(41):
                truths = {"cdf": cdf(params, y, EXACT)}
                if y >= 1:
                    truths["pmf"] = pmf(params, y, EXACT)
                for quantity, method in ROUTES:
                    if quantity in truths:
                        check((quantity, method), params, y, truths[quantity])
            for prob in SNAPSHOT_LEVELS:
                truth = quantile(params, prob, EXACT)
                for quantity, method in ROUTES:
                    if quantity == "quantile":
                        check((quantity, method), params, prob, truth)
        assert worst.keys() == ROUTES.keys()
        for key, (ratio, where) in worst.items():
            print(f"{key}: worst |value - EXACT| / error_bound = {ratio:.3f} at {where}")


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
        (mean, mean_err), (m2, m2_err) = _closed_sums(params)
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
                not err <= CANCELLATION_TOLERANCE * abs(value) for value, err in _closed_sums(params)
            )
            assert (moment_report(params).method == "series") == too_wide, params

    def test_hopeless_sums_are_refused_before_summing(self, monkeypatch):
        calls = []

        def counting(kernel):
            def counted(params, *args):
                calls.append((kernel.__name__, params))
                return kernel(params, *args)

            return counted

        for kernel in (_closed_sums, _exact_closed_moments):
            monkeypatch.setattr(moments, kernel.__name__, counting(kernel))
        wide = GameParams(900, 2000)
        assert moment_report(wide).method == "series"
        with pytest.raises(CancellationError, match="n=900, s=2000 lost too much precision"):
            moment_report(wide, method="closed")
        assert calls == []
        # pairs the test cannot settle, and exact mode, still sum
        assert moment_report(GameParams(30, 30)).method == "series"
        moment_report(GameParams(40, 40), EXACT)
        assert calls == [("_closed_sums", GameParams(30, 30))] + [
            ("_exact_closed_moments", GameParams(40, 40))
        ]

    def test_float_overflow_falls_back_to_the_series(self):
        # C(1100, k) * s**k / (s**k - (s-1)**k) passes the double range
        params = GameParams(1100, 2000)
        assert all(math.isnan(value) and err == math.inf for value, err in _closed_sums(params))
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

    def test_near_tie_past_the_size_cap_is_refused(self, monkeypatch):
        # the cap guards only the Fraction cdf: brackets decide the round
        # trip at (100, 100), y = 300, under small caps, and at s = 2**60,
        # while the exact tie at (3, 8), y = 5 needs that cdf, of
        # _cdf_products(tie, 5) digit products; a refusal names the first
        # turn that takes as many, 4
        params = GameParams(100, 100)
        prob = cdf(params, 300)
        tie = GameParams(3, 8)
        level = cdf(tie, 5, EXACT)
        products = _cdf_products(tie, 5)
        for cap in (products, 1000, 4000):
            monkeypatch.setattr(params_module, "TURN_CAP", cap)
            assert quantile(params, prob) == quantile(params, prob, EXACT)
            assert quantile(tie, level) == 5
        monkeypatch.setattr(params_module, "TURN_CAP", products - 1)
        assert _cdf_products(tie, 3) < products == _cdf_products(tie, 4)
        message = f"exact cdf at y=4 for n=3, s=8 takes up to {products} digit products, past TURN_CAP"
        for mode in (FLOAT, EXACT):
            with pytest.raises(ValueError, match=message):
                quantile(tie, level, mode)
        monkeypatch.undo()
        assert quantile(GameParams(2, 2**60), 0.5) == 1_415_726_707_229_888_307

    def test_levels_next_to_a_cdf_value_hand_over_to_the_exact_cdf(self):
        # at (1, 2) each decision near y = N needs brackets of about N bits;
        # doubling them to 2N bits took 10 s at N = 400,000 (52 s at 1.6
        # million), where the exact cdf takes milliseconds. Where the search
        # reaches a cdf past TURN_CAP the level is refused, where the
        # brackets took 125 s
        params = GameParams(1, 2)
        start = time.perf_counter()
        assert quantile(params, 1 - Fraction(1, 2**400_000)) == 400_000
        with pytest.raises(ValueError, match="the exact cdf at y=[0-9]+ for n=1, s=2 takes up to"):
            quantile(params, 1 - Fraction(1, 2**3_200_000))
        assert time.perf_counter() - start < 3

    def test_a_refused_probe_past_the_answer_bounds_the_search(self, monkeypatch):
        # the gallop from the seed at 53 probes y = 1075 past the answer
        # 1000; under a cap that admits the answer's exact cdf but not the
        # probe's, the search goes on below the probe instead of refusing,
        # and under one that refuses the answer's too, the refusal names
        # the first turn refused, 992, which takes as many products as
        # the answer, not the probe
        params, prob = GameParams(1, 2), 1 - Fraction(1, 2**1000)
        products = _cdf_products(params, 1000)
        assert _cdf_products(params, 1075) > products
        probes = []
        reaches = moments._cdf_reaches
        monkeypatch.setattr(moments, "_cdf_reaches", lambda *args: probes.append(args[1]) or reaches(*args))
        monkeypatch.setattr(params_module, "TURN_CAP", products)
        assert quantile(params, prob) == quantile(params, prob, EXACT) == 1000
        assert max(probes) == 1075
        monkeypatch.setattr(params_module, "TURN_CAP", products - 1)
        assert _cdf_products(params, 991) < products == _cdf_products(params, 992)
        message = f"at y=992 for n=1, s=2 takes up to {products} digit products"
        with pytest.raises(ValueError, match=message):
            quantile(params, prob)

    def test_level_extremes_rejected(self):
        params = GameParams(2, 3)
        for prob in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                quantile(params, prob)


def decimal_cdf(n: int, s: int, y: int, prec: int = 60) -> Decimal:
    """(1 - q**y)**n at prec significant digits, an oracle independent of moments.py."""
    with decimal.localcontext() as ctx:
        ctx.prec = prec
        return (1 - (1 - Decimal(1) / s) ** y) ** n


#: quantile(GameParams(2, 2**e), 0.5) by the float seed's gallop and bisection.
HUGE_S_MEDIANS = {
    200: 1973235035543031306671858901082634163387662810654532925224007,
    400: int(
        "31708664488788378913383841333420612995335630044937666172877001531863495976"
        "96411087998980695162550751243348701939230062265"
    ),
}


class TestQuantileAtScale:
    """Quantiles past exact mode's reach, checked against decimal_cdf."""

    @staticmethod
    def assert_inverse(params, prob, y, prec=60):
        assert decimal_cdf(params.n, params.s, y, prec) >= prob
        assert y == 1 or decimal_cdf(params.n, params.s, y - 1, prec) < prob

    @pytest.mark.parametrize("last", "789")
    def test_levels_where_the_float_cdf_misses_by_more_than_8u(self, last):
        params = GameParams(10**6, 10**9)
        prob = float.fromhex(f"0x1.e0d3f2cdabb1{last}p-2")
        assert quantile(params, prob) == 14_095_274_640
        self.assert_inverse(params, prob, 14_095_274_640)

    @pytest.mark.parametrize("n", [10**4, 3 * 10**4])
    def test_median_round_trip(self, n):
        params = GameParams(n, n)
        prob = cdf(params, quantile(params, 0.5))
        y = quantile(params, prob)
        self.assert_inverse(params, prob, y)

    @pytest.mark.parametrize("s", [2**60, 2**80])
    def test_two_dice_past_the_float_q(self, s):
        # past y = 2**53 the float seed can miss by many turns; the search gallops
        params = GameParams(2, s)
        self.assert_inverse(params, 0.5, quantile(params, 0.5))

    @pytest.mark.parametrize("e, prob", [(200, 0.5), (400, 0.5), (1000, 0.5), (1021, 0.999999)])
    def test_huge_s_takes_a_few_decisions(self, monkeypatch, e, prob):
        # the decimal seed lands within a turn or two, where the float seed
        # missed by about y 2**-50 turns and the search took two decisions
        # per missing bit: 292 and 692 at e = 200 and 400, whose answers are
        # pinned here; past them a decimal cdf of 2 digits(s) + 40 digits,
        # finer than pmf ~ 1/s, checks the answer. At e = 1021 the seed
        # passes the doubles, where the float seed raised OverflowError.
        decisions = []
        reaches = moments._cdf_reaches
        monkeypatch.setattr(moments, "_cdf_reaches", lambda *args: decisions.append(args) or reaches(*args))
        params = GameParams(2, 2**e)
        start = time.perf_counter()
        y = quantile(params, prob)
        assert time.perf_counter() - start < 1.0
        assert len(decisions) <= 10
        if e in HUGE_S_MEDIANS:
            assert y == HUGE_S_MEDIANS[e]
        else:
            self.assert_inverse(params, prob, y, prec=2 * len(str(params.s)) + 40)

    @pytest.mark.parametrize("n, s, expected", [(2, 2**100 + 7, 12_676_506_003), (1, 2**150 + 7, 142_725)])
    def test_roots_below_the_double_epsilon_seed_near_the_answer(self, monkeypatch, n, s, expected):
        # prob**(1/n) is below 2**-53 here, where log(-expm1(log root))
        # rounds to 0 and seeded the search at 1: 68 and 36 decisions
        decisions = []
        reaches = moments._cdf_reaches
        monkeypatch.setattr(moments, "_cdf_reaches", lambda *args: decisions.append(args) or reaches(*args))
        assert quantile(GameParams(n, s), Fraction(1, 10**40)) == expected
        assert len(decisions) <= 4

    @pytest.mark.parametrize(
        "prob,expected", [(Fraction(1, 10**400), 1), (Fraction(10**30 - 1, 10**30), 383)]
    )
    def test_levels_past_the_doubles_seed_a_finite_walk(self, prob, expected):
        # float(prob) is 0.0 and 1.0 here
        params = GameParams(2, 6)
        for mode in (FLOAT, EXACT):
            assert quantile(params, prob, mode) == expected
        self.assert_inverse(params, prob, expected)


class TestBracketPower:
    def test_brackets_the_exact_power(self):
        # every k-bit bracket [lo, lo] and [lo, lo + 1] of x in [0, 1]
        for k in (1, 3, 6):
            one = 1 << k
            for lo in range(one + 1):
                for hi in {lo, min(lo + 1, one)}:
                    for m in range(9):
                        low, high = _bracket_power(lo, hi, m, k)
                        assert low <= Fraction(lo, one) ** m * one, (lo, m, k)
                        assert Fraction(hi, one) ** m * one <= high, (hi, m, k)

    def test_zeroth_and_first_powers_are_exact(self):
        for lo, hi in ((0, 0), (3, 5), (256, 256)):
            assert _bracket_power(lo, hi, 0, 8) == (256, 256)
            assert _bracket_power(lo, hi, 1, 8) == (lo, hi)

    def test_dyadic_powers_round_nowhere(self):
        # x = 2**-j with j m <= k: every product is a k-bit integer
        for j, m in ((1, 8), (2, 4), (4, 2), (0, 100)):
            x = 1 << (8 - j)
            assert _bracket_power(x, x, m, 8) == (1 << (8 - j * m),) * 2

    def test_rounds_down_below_and_up_above(self):
        # (3/4)**5 * 2**8 = 60.75
        assert _bracket_power(192, 192, 5, 8) == (60, 61)


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


def test_methods_keep_their_order_and_refusal():
    # the CLI builds its --method choices and --help from this order
    assert report.ANALYTIC_METHODS == ("auto", "closed", "series", "recursive", "matrix-power")
    with pytest.raises(ValueError) as refused:
        moment_report(GameParams(2, 2), method="nope")
    assert str(refused.value) == (
        "unknown method 'nope'; pick from ('auto', 'closed', 'series', 'recursive', 'matrix-power')"
    )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: moment_report(GameParams(2, 2), method="nope"), "unknown method 'nope'"),
        (lambda: NumericMode("bogus"), "unknown numeric mode kind 'bogus'"),
        (lambda: NumericMode(truncation_epsilon=0), "truncation_epsilon must be positive"),
        (lambda: MomentReport(1.0, 1.0, 0.0, "bogus", 0.0), "unknown method tag 'bogus'"),
        (lambda: MomentReport(1.0, 1.0, 0.0, "series", -1.0), "error_bound must be nonnegative"),
    ],
)
def test_report_and_mode_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()
