"""Simulator, signature enumeration, and Monte Carlo plumbing.

The scripted-rolls fixture is the anchor: a four-dice game driven by a
hand-written roll sequence whose outcome is checked move by move.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import operator
import pickle
import tracemalloc
import warnings
from bisect import bisect_left
from collections import Counter
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomax import (
    CHUNK_TRIALS,
    EXACT,
    AbsorptionProfile,
    BoundReport,
    GameNotFinishedError,
    GameParams,
    GameRecord,
    McEstimate,
    MomentReport,
    NumericMode,
    TransitionMatrix,
    build_transition_matrix,
    cdf,
    enumerate_signatures,
    expected_value_closed,
    is_valid_signature,
    ks_critical_value,
    ks_statistic,
    monte_carlo_moments,
    play_game,
    signature_frequencies,
    turn_count_histogram,
    variance_closed,
)
from geomax import params as params_module
from geomax import simulate as simulate_module
from geomax.kernels import _U
from geomax.moments import _cdf_reaches, pmf
from geomax.params import MEMORY_BUDGET, TURN_CAP
from geomax.simulate import (
    SIGNATURE_CELL_GAMES,
    TAIL_FLOOR,
    TURN_CELL_GAMES,
    _signature_chunk,
    _signature_counts,
    _signature_law,
    _table_cells,
    _turn_chunk,
    _turn_table,
)


def check_inversion(params: GameParams, cells: np.ndarray, count: int, seed: int) -> None:
    """_turn_chunk's head is its multinomial draw and its tail the exact inverse law.

    The tail's U = 1 - S(K) (1 - V) are replayed from the same stream and
    sorted; as the turn count grows with U, the sorted tail deals them
    out in order, and each turn y must take U with cdf(y - 1) < U <= cdf(y)
    in exact arithmetic.
    """
    k = cells.size - 1
    head, tail = _turn_chunk(params, count, np.random.default_rng(seed), cells)
    rng = np.random.default_rng(seed)
    drawn = rng.multinomial(count, cells)
    survival = Fraction(cells[-1])
    uniforms = sorted(1 - survival * (1 - Fraction(v)) for v in rng.random(drawn[-1]).tolist())
    assert head.tolist() == drawn[:-1].tolist()
    assert tail.dtype == np.int64 and tail.size == len(uniforms) > 0
    assert (tail > k).all()
    start = 0
    for y, games in zip(*np.unique(tail, return_counts=True)):
        low, high = uniforms[start], uniforms[start + games - 1]
        assert not _cdf_reaches(params, int(y) - 1, low) and _cdf_reaches(params, int(y), high), (params, y)
        start += games


def check_record(record: GameRecord) -> None:
    """Structural invariants every transcript must satisfy."""
    n = record.params.n
    alive = n
    for faces, removed in zip(record.turns, record.removed_per_turn):
        assert len(faces) == alive
        assert all(1 <= f <= record.params.s for f in faces)
        assert removed == sum(1 for f in faces if f == alive)
        alive -= removed
    assert alive == 0
    assert record.turn_count == len(record.turns)
    assert sum(record.removed_per_turn) == n
    assert is_valid_signature(record.signature)
    assert len(record.signature) == n


class TestScriptedGame:
    def test_four_dice_fixture(self):
        # alive 4: faces 3,2,2,4 -> one match -> alive 3
        # alive 3: faces 3,3,1  -> two matches -> alive 1
        # alive 1: face 6 -> none; face 1 -> done. 4 turns, signature 4331
        record = play_game(GameParams(4, 6), roll_source=[3, 2, 2, 4, 3, 3, 1, 6, 1])
        assert record.turn_count == 4
        assert record.turns == ((3, 2, 2, 4), (3, 3, 1), (6,), (1,))
        assert record.removed_per_turn == (1, 2, 0, 1)
        assert record.signature == (4, 3, 3, 1)
        check_record(record)

    def test_roll_source_exhaustion(self):
        with pytest.raises(ValueError, match="exhausted"):
            play_game(GameParams(2, 3), roll_source=[1, 1, 3])

    def test_roll_source_range_check(self):
        with pytest.raises(ValueError, match="outside"):
            play_game(GameParams(2, 3), roll_source=[1, 4])
        with pytest.raises(ValueError, match="outside"):
            play_game(GameParams(2, 3), roll_source=[0, 2])
        for face in (1.5, 2.9, True, "1"):
            with pytest.raises(ValueError, match="not an integer"):
                play_game(GameParams(1, 2), roll_source=[face])

    def test_unplayable_game_rejected(self):
        with pytest.raises(ValueError):
            play_game(GameParams(4, 2, relaxed=True))
        # numpy draws int64 faces; scripted faces have no such limit
        with pytest.raises(ValueError, match="at most 2\\*\\*63 - 1"):
            play_game(GameParams(1, 2**63), seed=1)
        assert play_game(GameParams(1, 2**63), roll_source=[2**63, 1]).turn_count == 2

    def test_seeded_games_are_reproducible(self):
        a = play_game(GameParams(5, 6), seed=99)
        b = play_game(GameParams(5, 6), seed=99)
        c = play_game(GameParams(5, 6), seed=100)
        assert a == b
        assert a != c  # nearly certain; frozen seed pair chosen to differ

    def test_replaying_a_seeded_game_gives_it_back(self):
        for n, s, seed in [(1, 6, 1), (4, 6, 2), (5, 5, 3), (12, 20, 4), (30, 30, 5)]:
            record = play_game(GameParams(n, s), seed=seed)
            faces = iter([face for turn in record.turns for face in turn] + [1, 1])
            assert play_game(GameParams(n, s), roll_source=faces) == record
            assert list(faces) == [1, 1]  # no face read past the game's end

    @pytest.mark.parametrize(
        "n, s, seed, turns, digest",
        [
            (1, 20_000, 3, 17796, "9e7f10f627fdf02e91c9f5ee2f6d082e18b8a4e6790a77043f310d965ddf6167"),
            (20, 20, 4, 129, "7d2cbfbb1c4dac51e9f310bdc14c436d5a434de0b1f1512e7aee974f22803ea8"),
            (400, 400, 5, 2204, "8ef31b570a63f2059ff61201f93a0fd6e26d9efc66033116837fe135abbafc44"),
        ],
    )
    def test_seeded_transcripts_frozen(self, n, s, seed, turns, digest):
        # frozen from the turn-by-turn player that read one turn's faces at a time
        record = play_game(GameParams(n, s), seed=seed)
        assert record.turn_count == turns
        assert hashlib.sha256(repr(record).encode()).hexdigest() == digest

    @pytest.mark.parametrize("n, s", [(1, 6), (3, 4)])
    def test_seeded_turn_counts_follow_the_law(self, n, s):
        # a face buffer that reused or skipped draws would bend this law
        params = GameParams(n, s)
        counts = [play_game(params, seed=seed).turn_count for seed in range(2_000)]
        hist = np.bincount(counts)
        assert ks_statistic(hist, params) < ks_critical_value(2_000)

    @settings(max_examples=30, deadline=None)
    @given(
        st.integers(1, 6).flatmap(lambda n: st.integers(n, 8).map(lambda s: (n, s))),
        st.integers(0, 2**32),
    )
    def test_random_games_satisfy_invariants(self, ns, seed):
        record = play_game(GameParams(*ns), seed=seed)
        check_record(record)


class TestSignatures:
    def test_counts_double_with_each_die(self):
        for n in range(1, 13):
            assert len(enumerate_signatures(n)) == 2 ** (n - 1)

    def test_four_dice_listing_frozen(self):
        assert enumerate_signatures(4) == [
            (4, 4, 4, 4),
            (4, 4, 4, 1),
            (4, 4, 2, 2),
            (4, 4, 2, 1),
            (4, 3, 3, 3),
            (4, 3, 3, 1),
            (4, 3, 2, 2),
            (4, 3, 2, 1),
        ]

    def test_listing_is_descending_lexicographic(self):
        sigs = enumerate_signatures(7)
        assert sigs == sorted(sigs, reverse=True)
        assert len(set(sigs)) == len(sigs)

    def test_every_enumerated_signature_validates(self):
        for sig in enumerate_signatures(9):
            assert is_valid_signature(sig)
            assert len(sig) == 9
            assert sig[0] == 9

    def test_invalid_shapes_rejected(self):
        for bad in [(2, 2, 1), (4, 4, 1, 1), (4, 3, 3, 2), (3, 3), (1, 1), (2,), (0,)]:
            assert not is_valid_signature(bad)
        assert is_valid_signature(())  # zero dice: the empty game
        assert is_valid_signature((1,))
        assert is_valid_signature((2, 2))
        assert is_valid_signature((2, 1))

    def test_enumeration_size_guard(self):
        with pytest.raises(ValueError):
            enumerate_signatures(0)
        # levels 1..22 take about 906 MB and pass; n = 23 is refused before any is built
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"levels 1\.\.23 of n=23 would take about 1879048152 bytes, past"):
                enumerate_signatures(23)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6
        for n in (25, 10**30):  # refused at the same level, however large n is
            with pytest.raises(ValueError, match=rf"levels 1\.\.23 of n={n} "):
                enumerate_signatures(n)

    def test_the_budget_is_compared_with_the_levels_bytes(self, monkeypatch):
        # level m: 2**(m-1) tuples of 40 + 8m bytes and a reference to each
        need = sum((48 + 8 * m) << (m - 1) for m in range(1, 17))
        tracemalloc.start()
        try:
            monkeypatch.setattr(params_module, "MEMORY_BUDGET", need)
            assert len(enumerate_signatures(16)) == 2**15
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert 0.75 * need < peak < 1.25 * need  # the estimate is about what the levels take
        monkeypatch.setattr(params_module, "MEMORY_BUDGET", need - 1)
        with pytest.raises(ValueError, match=f"levels 1..16 of n=16 would take about {need} bytes, past MEMORY_BUDGET"):
            enumerate_signatures(16)


class TestMonteCarlo:
    def test_determinism_across_calls(self):
        a = monte_carlo_moments(GameParams(3, 6), trials=50_000, seed=7)
        b = monte_carlo_moments(GameParams(3, 6), trials=50_000, seed=7)
        assert (a.mean, a.variance) == (b.mean, b.variance)

    def test_chunking_does_not_change_the_stream(self):
        # CHUNK_TRIALS + 17 trials are the CHUNK_TRIALS-trial run, on
        # substream (seed, 0), plus 17 games on substream (seed, 1)
        params, seed = GameParams(2, 4), 3
        whole = turn_count_histogram(params, CHUNK_TRIALS + 17, seed)
        head = turn_count_histogram(params, CHUNK_TRIALS, seed)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 1)))
        games, turns = _turn_chunk(params, 17, rng, _turn_table(params, CHUNK_TRIALS + 17))
        tail = np.bincount(turns, minlength=games.size + 1)
        tail[1 : games.size + 1] += games
        tail = np.trim_zeros(tail, "b")
        size = max(head.size, tail.size)
        expected = np.pad(head, (0, size - head.size)) + np.pad(tail, (0, size - tail.size))
        assert np.array_equal(whole, expected)

    @pytest.mark.parametrize("n, s, count", [(1, 1, 5), (3, 5, 1000), (400, 400, 300)])
    def test_signatures_read_the_histogram_stream(self, n, s, count):
        # each game's signature is the rule applied to its n exit turns,
        # drawn row-major (400 dice span two blocks of whole games)
        params = GameParams(n, s)
        sigs = _signature_chunk(params, count, np.random.default_rng(8))
        assert sum(sigs.values()) == count
        draws = np.random.default_rng(8).geometric(1 / s, size=(count, n))
        expected = Counter()
        for row in draws.tolist():
            signature, alive, exits = [], n, Counter(row)
            for turn in sorted(exits):
                removed = exits[turn]
                signature += [alive] * removed
                alive -= removed
            expected[tuple(signature)] += 1
        assert sigs == expected

    @pytest.mark.parametrize("n", [6, 17, 64, 65])
    def test_signature_counts_match_each_row(self, n):
        # the tie patterns group as integer codes up to 64 dice (17 pads
        # three bytes to four) and as raw bytes past that; each die's entry
        # is the number of dice still in play on its exit turn
        exits = np.random.default_rng(n).geometric(1 / 4, size=(2000, n))
        expected = Counter()
        for row in map(sorted, exits.tolist()):
            expected[tuple(n - bisect_left(row, turn) for turn in row)] += 1
        assert _signature_counts(exits) == expected

    def test_chunk_memory_does_not_grow_with_the_draws(self):
        # one (count x n) int64 draw would take 13 MB here; the returned
        # counts (4096 distinct 400-long signatures, about 33 MB) are not
        # working memory, so the peak is taken above what is still held
        tracemalloc.start()
        try:
            sigs = _signature_chunk(GameParams(400, 400), 4096, np.random.default_rng(1))
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert sum(sigs.values()) == 4096
        assert peak - held < 4e6

    @pytest.mark.parametrize(
        "table_trials, floor",
        # K = 0, so every game inverts the plain law; K > 0 with the tail
        # floor raised so that a quarter of the games or more land past K
        [(TURN_CELL_GAMES - 1, TAIL_FLOOR), (2000, 0.25)],
        ids=["K=0", "K>0"],
    )
    def test_turn_counts_invert_the_exact_law(self, monkeypatch, table_trials, floor):
        monkeypatch.setattr(simulate_module, "TAIL_FLOOR", floor)
        for s in range(1, 13):
            for n in range(1, s + 1):
                check_inversion(GameParams(n, s), _turn_table(GameParams(n, s), table_trials), 2000, 100 * n + s)

    @pytest.mark.parametrize("n, s, count", [(2, 5000, 20), (1, 10**6, 100)])
    def test_sparse_tails_invert_the_exact_law(self, n, s, count):
        # the tail spans far more turns than it has games
        params = GameParams(n, s)
        check_inversion(params, _turn_table(params, count), count, 7)

    @pytest.mark.parametrize("trials", [1, TURN_CELL_GAMES, 2000, CHUNK_TRIALS, 10 * CHUNK_TRIALS])
    def test_turn_tables_hold_their_invariants(self, trials):
        # numpy's multinomial needs cells >= 0 summing to at most 1 before the
        # last; the last, S(K), stays at or above the floor, and each cell
        # is its turn's probability
        cases = [GameParams(n, s) for s in range(1, 13) for n in range(1, s + 1)]
        cases += [GameParams(50, 50), GameParams(1, 10**6), GameParams(400, 400), GameParams(2, 10**12)]
        for params in cases:
            cells = _turn_table(params, trials)
            k = cells.size - 1
            assert k <= max(0, min(trials, CHUNK_TRIALS) // TURN_CELL_GAMES), (params, trials)
            assert (cells >= 0).all() and math.fsum(cells[:-1]) <= 1, (params, trials)
            assert cells[-1] >= TAIL_FLOOR, (params, trials)
            if params.s <= 12:
                assert cells[-1] == pytest.approx(float(1 - cdf(params, k, EXACT)), rel=1e-12, abs=1e-15)
                for y in range(1, k + 1):
                    assert cells[y - 1] == pytest.approx(float(pmf(params, y, EXACT)), rel=1e-12, abs=1e-15)
        assert _turn_table(GameParams(4, 6), 100_000).size - 1 > 0  # a dense law tabulates
        assert _turn_table(GameParams(50, 50), 1_500).size == 1  # 880 turns for 1,500 games do not

    def test_histograms_follow_the_exact_law(self):
        # chi-square over cells pooled to an expected count of at least 5,
        # against the Wilson-Hilferty quantile, Bonferroni over the 78 games
        trials, seed = 20_000, 29
        cases = [GameParams(n, s) for s in range(1, 13) for n in range(1, s + 1)]
        z = NormalDist().inv_cdf(1 - 0.001 / len(cases))
        for params in cases:
            hist = turn_count_histogram(params, trials, seed)
            assert hist.sum() == trials and hist[0] == 0
            bins, observed, expected = [], 0, 0.0
            for y in range(1, hist.size):
                observed += int(hist[y])
                expected += trials * pmf(params, y)
                if expected >= 5 and trials * (1 - cdf(params, y)) >= 5:
                    bins.append((observed, expected))
                    observed, expected = 0, 0.0
            # the last bin runs from its first turn to infinity
            expected = trials - sum(e for _, e in bins)
            bins.append((observed, expected))
            df = len(bins) - 1
            if df == 0:  # s = 1: one turn, one bin
                assert hist.tolist() == [0, trials]
                continue
            stat = sum((o - e) ** 2 / e for o, e in bins)
            limit = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
            assert stat < limit, (params, stat, limit, df)

    @pytest.mark.parametrize("n, s, trials", [(4, 6, 3000), (1, 10**5, 200), (1, 10**7, 40)])
    def test_moments_read_exact_sums(self, n, s, trials):
        # int64 sums below 2**23 turns, Python ints past them
        params, seed = GameParams(n, s), 3
        cells = _turn_table(params, trials)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0)))
        head, tail = _turn_chunk(params, trials, rng, cells)
        turns = list(range(1, head.size + 1)) + tail.tolist()
        games = head.tolist() + [1] * tail.size
        total = sum(y * c for y, c in zip(turns, games))
        total_sq = sum(y * y * c for y, c in zip(turns, games))
        est = monte_carlo_moments(params, trials, seed)
        assert est.mean == total / trials
        assert est.variance == (trials * total_sq - total * total) / (trials * (trials - 1))

    def test_moments_memory_does_not_grow_with_the_longest_game(self):
        # games of about 10**6 turns: a dense histogram would take megabytes
        tracemalloc.start()
        try:
            monte_carlo_moments(GameParams(1, 10**6), trials=100, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

    def test_histogram_past_the_memory_budget_is_refused(self):
        # the longest of these games takes 202,649,381 turns, within TURN_CAP:
        # its dense histogram would take 1.6 GB
        assert 8 * 202_649_382 > MEMORY_BUDGET
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="games up to 202649381 turns would take .* past MEMORY_BUDGET"):
                turn_count_histogram(GameParams(1, 2 * 10**8), trials=3, seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    def test_histogram_budget_is_compared_before_bincount(self, monkeypatch):
        params = GameParams(3, 5)
        hist = turn_count_histogram(params, trials=1000, seed=5)
        monkeypatch.setattr(params_module, "MEMORY_BUDGET", 8 * hist.size)
        assert np.array_equal(turn_count_histogram(params, trials=1000, seed=5), hist)
        monkeypatch.setattr(params_module, "MEMORY_BUDGET", 8 * hist.size - 1)
        message = f"games up to {hist.size - 1} turns would take about {8 * hist.size} bytes"
        with pytest.raises(ValueError, match=message):
            turn_count_histogram(params, trials=1000, seed=5)

    def test_turn_cap_stops_long_games_at_once(self):
        # 1/s = 1e-12 gives about 10**12 turns; 1e-300 saturates numpy's
        # draw; 1/s is subnormal at 2**1024 and rounds to 0 at 2**1100
        with pytest.raises(GameNotFinishedError, match=str(TURN_CAP)):
            monte_carlo_moments(GameParams(2, 10**12), trials=2, seed=1)
        with pytest.raises(GameNotFinishedError):
            signature_frequencies(GameParams(1, 10**300), trials=2, seed=1)
        for s in (2**1024, 2**1100):
            for run in (monte_carlo_moments, turn_count_histogram, signature_frequencies):
                with pytest.raises(GameNotFinishedError, match=str(TURN_CAP)):
                    run(GameParams(2, s), 2, 1)

    def test_one_face_games_take_one_turn(self):
        # so does a game whose uniform is 0, at any s, and one whose U is
        # cdf(K) takes K + 1; log1p(-1) warns nothing
        class ZeroUniforms:
            def multinomial(self, count, cells):
                return np.array([0] * (cells.size - 1) + [count])

            def random(self, count):
                return np.zeros(count)

        params = GameParams(1, 1)
        cells = _turn_table(GameParams(3, 5), 2000)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert turn_count_histogram(params, 1000, 4).tolist() == [0, 1000]
            est = monte_carlo_moments(params, 1000, 4)
            head, tail = _turn_chunk(GameParams(3, 5), 4, ZeroUniforms(), np.ones(1))
            assert (head.tolist(), tail.tolist()) == ([], [1] * 4)
            head, tail = _turn_chunk(GameParams(3, 5), 4, ZeroUniforms(), cells)
            assert (head.tolist(), tail.tolist()) == ([0] * (cells.size - 1), [cells.size] * 4)
        assert (est.mean, est.variance) == (1.0, 0.0)
        assert signature_frequencies(params, 1000, 4) == Counter({(1,): 1000})

    def test_estimates_near_truth(self):
        params = GameParams(2, 2)
        est = monte_carlo_moments(params, trials=200_000, seed=11)
        truth = float(expected_value_closed(params, EXACT))
        assert abs(est.mean - truth) < 4 * est.std_error_mean
        var_truth = float(variance_closed(params, EXACT))
        assert abs(est.variance - var_truth) / var_truth < 0.05

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_moments(GameParams(2, 3), trials=0, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_moments(GameParams(2, 3), trials=1, seed=1)
        with pytest.raises(ValueError):
            monte_carlo_moments(GameParams(2, 3), trials=100, seed=-1)
        with pytest.raises(ValueError):
            monte_carlo_moments(GameParams(4, 2, relaxed=True), trials=100, seed=1)

    def test_histogram_matches_moment_run(self):
        params = GameParams(3, 5)
        hist = turn_count_histogram(params, trials=30_000, seed=5)
        est = monte_carlo_moments(params, trials=30_000, seed=5)
        assert hist.sum() == 30_000
        assert hist[0] == 0
        mean_from_hist = float(np.dot(np.arange(hist.size), hist)) / 30_000
        assert mean_from_hist == pytest.approx(est.mean, abs=1e-12)

    def test_signature_frequencies_two_dice(self):
        # P(both dice leave together) = p/(1+q) = 1/3 for s = 2
        counts = signature_frequencies(GameParams(2, 2), trials=100_000, seed=13)
        assert sum(counts.values()) == 100_000
        assert set(counts) <= {(2, 2), (2, 1)}
        freq = counts[(2, 2)] / 100_000
        # 3.3 standard errors of the binomial at p = 1/3
        assert abs(freq - 1 / 3) < 3.3 * math.sqrt((1 / 3) * (2 / 3) / 100_000)

    def test_signature_frequencies_follow_the_jump_chain(self):
        # exact signature law: from k dice the game next has j < k dice
        # with probability P[k][j] / (1 - P[k][k]), and the k - j removed
        # dice add k - j copies of k to the signature
        trials = 100_000
        cases = [GameParams(3, 3), GameParams(3, 5)]
        # two-sided, Bonferroni over the 4 signatures of 3 dice in each case
        z_max = NormalDist().inv_cdf(1 - 0.001 / (2 * 4 * len(cases)))
        for params in cases:
            rows = build_transition_matrix(params, EXACT).rows
            law = {}
            for sig in enumerate_signatures(params.n):
                prob, k = Fraction(1), params.n
                while k:
                    j = k - sig.count(k)
                    prob *= rows[k][j] / (1 - rows[k][k])
                    k = j
                law[sig] = prob
            assert sum(law.values()) == 1
            counts = signature_frequencies(params, trials, seed=19)
            assert set(counts) <= set(law)
            for sig, prob in law.items():
                p = float(prob)
                z = abs(counts[sig] - trials * p) / math.sqrt(trials * p * (1 - p))
                assert z < z_max, (params, sig, z)

    def test_signature_frequencies_are_valid_signatures(self):
        counts = signature_frequencies(GameParams(4, 6), trials=20_000, seed=17)
        assert set(counts) <= set(enumerate_signatures(4))


class TestSignatureLaw:
    def test_exact_law_sums_to_one_and_follows_the_chain(self):
        # each cell is the product of its jumps' P[k][j] / (1 - P[k][k])
        for s in range(1, 13):
            for n in range(1, s + 1):
                params = GameParams(n, s)
                law = _signature_law(params, Fraction)
                assert len(law) == 2 ** (n - 1) and sum(law) == 1, (n, s)
                if s <= 6:
                    rows = build_transition_matrix(params, EXACT).rows
                    for sig, prob in zip(enumerate_signatures(n), law):
                        chained, k = Fraction(1), n
                        while k:
                            j = k - sig.count(k)
                            chained *= rows[k][j] / (1 - rows[k][k])
                            k = j
                        assert prob == chained, (n, s, sig)

    @pytest.mark.parametrize("n, s", [(3, 5), (6, 6), (10, 12), (12, 40)])
    def test_float_cells_lie_within_n_u_of_the_exact_law(self, n, s):
        # at most n rounded factors and n - 1 rounded products: (2n - 1)u
        # by analysis, under 0.6 n u as measured on these pairs
        params = GameParams(n, s)
        for cell, exact in zip(_signature_law(params, operator.truediv), _signature_law(params, Fraction)):
            assert abs(Fraction(cell) - exact) <= n * Fraction(_U) * exact

    def test_signature_frequencies_follow_the_exact_law(self):
        # chi-square over cells, in listing order, pooled to an expected
        # count of at least 5, against the Wilson-Hilferty quantile,
        # Bonferroni over the 36 games
        trials, seed = 200_000, 41
        cases = [GameParams(n, s) for s in range(1, 9) for n in range(1, s + 1)]
        z = NormalDist().inv_cdf(1 - 0.001 / len(cases))
        for params in cases:
            counts = signature_frequencies(params, trials, seed)
            sigs = enumerate_signatures(params.n)
            assert sum(counts.values()) == trials and set(counts) <= set(sigs)
            bins, observed, expected = [], 0, 0.0
            for sig, prob in zip(sigs, _signature_law(params, Fraction)):
                observed += counts[sig]
                expected += trials * float(prob)
                if expected >= 5:
                    bins.append((observed, expected))
                    observed, expected = 0, 0.0
            if expected:  # the last cells join the bin before them
                last_observed, last_expected = bins.pop()
                bins.append((last_observed + observed, last_expected + expected))
            df = len(bins) - 1
            if df == 0:  # one die: one signature
                assert counts == Counter({(1,): trials})
                continue
            stat = sum((o - e) ** 2 / e for o, e in bins)
            limit = df * (1 - 2 / (9 * df) + z * math.sqrt(2 / (9 * df))) ** 3
            assert stat < limit, (params, stat, limit, df)

    def test_signature_counts_are_one_multinomial_per_chunk(self):
        # chunk i draws Multinomial(size, law) first on substream (seed, i)
        params, seed = GameParams(4, 6), 5
        cells = np.array(_signature_law(params, operator.truediv))
        expected = Counter()
        for index, size in enumerate((CHUNK_TRIALS, 17)):
            rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
            for sig, count in zip(enumerate_signatures(4), rng.multinomial(size, cells).tolist()):
                expected[sig] += count
        assert signature_frequencies(params, CHUNK_TRIALS + 17, seed) == +expected

    def test_tabulated_signatures_keep_the_turn_cap(self):
        # 2 signatures for 10**4 games take the table; the longest of the
        # chunk's 2 * 10**4 exit turns, about 10**13, passes TURN_CAP
        assert 2 <= _table_cells(10_000, SIGNATURE_CELL_GAMES)
        with pytest.raises(GameNotFinishedError, match=str(TURN_CAP)):
            signature_frequencies(GameParams(2, 10**12), 10_000, 1)

    @pytest.mark.parametrize(
        "n, trials, tabulated",
        # the timed sizes: the table wins at (13, 13) x 10**4 and up to
        # (16, 16) x 65,536, and is about even one die past each
        [(4, 8 * SIGNATURE_CELL_GAMES, True), (4, 8 * SIGNATURE_CELL_GAMES - 1, False),
         (13, 10_000, True), (14, 10_000, False), (15, CHUNK_TRIALS, True),
         (16, CHUNK_TRIALS + 5, True), (17, CHUNK_TRIALS + 5, False)],
    )
    def test_the_table_rule_holds_at_its_limit(self, monkeypatch, n, trials, tabulated):
        # 2**(n - 1) signatures are tabulated up to _table_cells(trials,
        # SIGNATURE_CELL_GAMES) and drawn die by die one past it; either way
        # the games are counted
        assert (2 ** (n - 1) <= _table_cells(trials, SIGNATURE_CELL_GAMES)) == tabulated
        calls = []
        per_die = simulate_module._signature_chunk
        monkeypatch.setattr(simulate_module, "_signature_chunk", lambda *a: calls.append(a) or per_die(*a))
        counts = signature_frequencies(GameParams(n, n), trials, 3)
        assert bool(calls) != tabulated
        assert sum(counts.values()) == trials
        assert all(len(sig) == n and is_valid_signature(sig) for sig in counts)


@pytest.mark.parametrize(
    "value, accepted",
    [(4, True), (np.int64(4), True), (np.uint8(4), True), (True, False), (4.0, False)],
)
def test_integer_like_sizes_and_seeds(value, accepted):
    if not accepted:
        with pytest.raises(ValueError):
            GameParams(value, 6)
        with pytest.raises(ValueError):
            monte_carlo_moments(GameParams(4, 6), trials=100, seed=value)
        with pytest.raises(ValueError):
            enumerate_signatures(value)
        return
    params = GameParams(value, 6)
    assert params == GameParams(4, 6)
    assert type(params.n) is int
    est = monte_carlo_moments(params, trials=100, seed=value)
    assert est == monte_carlo_moments(GameParams(4, 6), trials=100, seed=4)
    assert type(est.seed) is int
    assert play_game(params, seed=value) == play_game(GameParams(4, 6), seed=4)
    assert len(enumerate_signatures(value)) == 8


@pytest.mark.parametrize("trials", [100.0, True])
@pytest.mark.parametrize(
    "run", [turn_count_histogram, signature_frequencies, monte_carlo_moments]
)
def test_trials_must_be_an_integer(run, trials):
    with pytest.raises(ValueError):
        run(GameParams(2, 3), trials, 1)


class TestKolmogorovSmirnov:
    def test_statistic_zero_against_own_cdf(self):
        # histogram proportional to the exact pmf gives a tiny statistic
        params = GameParams(2, 2)
        weights = [0.0] + [float(cdf(params, y) - cdf(params, y - 1)) for y in range(1, 60)]
        hist = np.array([round(w * 10**7) for w in weights], dtype=np.int64)
        stat = ks_statistic(hist, params)
        assert stat < 1e-6

    def test_statistic_catches_a_shifted_sample(self):
        params = GameParams(2, 2)
        hist = turn_count_histogram(params, trials=50_000, seed=23)
        shifted = np.concatenate([[0], hist])  # every game one turn longer
        honest = ks_statistic(hist, params)
        broken = ks_statistic(shifted, params)
        assert honest < ks_critical_value(50_000)
        assert broken > 10 * ks_critical_value(50_000)

    def test_critical_value_formula(self):
        # sqrt(-ln(alpha/2)/2)/sqrt(T) at alpha = 0.001, T = 10**6
        assert ks_critical_value(10**6) == pytest.approx(0.0019495, abs=1e-6)
        assert ks_critical_value(250_000, alpha=0.05) == pytest.approx(
            math.sqrt(-math.log(0.025) / 2) / 500, rel=1e-12
        )


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: turn_count_histogram(GameParams(2, 3), trials=0, seed=1), "trials must be positive"),
        (lambda: ks_statistic(np.zeros(4, dtype=np.int64), GameParams(2, 2)), "empty histogram"),
        (lambda: ks_critical_value(0), "trials must be positive"),
        (lambda: ks_critical_value(100, alpha=0.0), r"alpha must lie in \(0, 1\)"),
        (lambda: ks_critical_value(100, alpha=1.0), r"alpha must lie in \(0, 1\)"),
    ],
)
def test_histogram_and_ks_inputs_are_checked(call, message):
    with pytest.raises(ValueError, match=message):
        call()


#: One record of each result and parameter type: its class, its fields in
#: order and its repr, pinned from when the types were frozen dataclasses.
#: A transcript's repr feeds the frozen seeded digests above.
RECORDS = [
    (NumericMode, ("exact", 1e-6), "NumericMode(kind='exact', truncation_epsilon=1e-06)"),
    (GameParams, (5, 2, 1), "GameParams(n=5, s=2, relaxed=1)"),
    (
        MomentReport,
        (1.5, Fraction(9, 4), 0.25, "series", 1e-12),
        "MomentReport(mean=1.5, second_moment=Fraction(9, 4), variance=0.25, method='series', error_bound=1e-12)",
    ),
    (TransitionMatrix, (1, ((1.0, 0.0), (0.5, 0.5))), "TransitionMatrix(n=1, rows=((1.0, 0.0), (0.5, 0.5)))"),
    (
        AbsorptionProfile,
        (GameParams(3, 4), (0.0, 1.5), (0.0, 3.0)),
        "AbsorptionProfile(params=GameParams(n=3, s=4, relaxed=False), first_moments=(0.0, 1.5),"
        " second_moments=(0.0, 3.0))",
    ),
    (
        BoundReport,
        ("mean", 1, Fraction(7, 2), "a", "b"),
        "BoundReport(quantity='mean', lower=1, upper=Fraction(7, 2), lower_source='a', upper_source='b')",
    ),
    (
        GameRecord,
        (GameParams(2, 2), ((1, 2), (1,)), (1, 1), (2, 1), 2),
        "GameRecord(params=GameParams(n=2, s=2, relaxed=False), turns=((1, 2), (1,)),"
        " removed_per_turn=(1, 1), signature=(2, 1), turn_count=2)",
    ),
    (McEstimate, (1.0, 2.0, 0.1, 100, 7), "McEstimate(mean=1.0, variance=2.0, std_error_mean=0.1, trials=100, seed=7)"),
]


class TestRecords:
    """Every result and parameter type keeps the semantics it had as a frozen dataclass."""

    @pytest.mark.parametrize("cls, fields, text", RECORDS, ids=[cls.__name__ for cls, _, _ in RECORDS])
    def test_record_semantics(self, cls, fields, text):
        record = cls(*fields)
        names = list(inspect.signature(cls).parameters)
        assert repr(record) == text
        assert text == f"{cls.__name__}({', '.join(f'{k}={v!r}' for k, v in zip(names, fields))})"
        by_name = cls(**dict(zip(names, fields)))
        assert by_name == record and repr(by_name) == text
        # equal only to a record of its own class with equal fields
        assert record == cls(*fields) and not record != cls(*fields)
        assert record != fields and not record == fields
        assert record.__eq__(fields) is NotImplemented
        assert record != type("Other", (cls,), {})(*fields)
        assert hash(record) == hash(fields)
        for name in (*names, "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
            with pytest.raises(AttributeError):
                delattr(record, name)
        assert repr(record) == text
        for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
            copy = pickle.loads(pickle.dumps(record, protocol))
            assert type(copy) is cls and copy == record and repr(copy) == text

    def test_defaults(self):
        assert repr(NumericMode()) == "NumericMode(kind='float', truncation_epsilon=1e-13)"
        assert NumericMode() == NumericMode("float", 1e-13) == NumericMode(truncation_epsilon=1e-13)
        assert repr(GameParams(3, 4)) == "GameParams(n=3, s=4, relaxed=False)"
        assert GameParams(3, 4) == GameParams(3, 4, False) != (3, 4, False)
        assert GameParams(np.int64(3), s=4) == GameParams(3, 4)  # n and s are stored as plain ints
        assert type(GameParams(np.int64(3), 4).n) is int

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: NumericMode("bogus"), "unknown numeric mode kind 'bogus'"),
            (lambda: NumericMode(truncation_epsilon=0.0), "truncation_epsilon must be positive"),
            (lambda: NumericMode(truncation_epsilon=math.nan), "truncation_epsilon must be positive"),
            (lambda: GameParams(1.5, 2), "n and s must be integers"),
            (lambda: GameParams(2, True), "n and s must be integers"),
            (lambda: GameParams(0, 2), "n and s must both be at least 1"),
            (lambda: GameParams(3, 2), r"n=3 exceeds s=2; pass relaxed=True to evaluate anyway"),
            (lambda: MomentReport(1.0, 1.0, 0.0, "bogus", 0.0), "unknown method tag 'bogus'"),
            (lambda: MomentReport(1.0, 1.0, 0.0, "series", -1e-9), "error_bound must be nonnegative"),
            (lambda: BoundReport("mean", 2, 1, "a", "b"), "bound report with lower > upper"),
        ],
    )
    def test_validation(self, call, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            call()
