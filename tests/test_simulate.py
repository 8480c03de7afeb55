"""Simulator, signature enumeration, and Monte Carlo plumbing.

The scripted-rolls fixture is the anchor: a four-dice game driven by a
hand-written roll sequence whose outcome is checked move by move.
"""

from __future__ import annotations

import hashlib
import math
import tracemalloc
import warnings
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
    GameNotFinishedError,
    GameParams,
    GameRecord,
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
from geomax.simulate import TURN_CAP, _signature_chunk, _turn_counts


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
            enumerate_signatures(25)
        with pytest.raises(ValueError):
            enumerate_signatures(0)


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
        tail = np.bincount(_turn_counts(params, 17, rng))
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

    def test_turn_counts_invert_the_exact_law(self):
        # each game's turn count T is the smallest y with cdf(y) >= U, U its
        # uniform: cdf(T - 1) < U <= cdf(T) in exact arithmetic
        for s in range(1, 13):
            for n in range(1, s + 1):
                params, seed = GameParams(n, s), 100 * n + s
                turns = _turn_counts(params, 2000, np.random.default_rng(seed))
                uniforms = np.random.default_rng(seed).random(2000)
                for y in np.unique(turns).tolist():
                    drawn = uniforms[turns == y]
                    assert cdf(params, y - 1, EXACT) < Fraction(drawn.min()), (n, s, y)
                    assert Fraction(drawn.max()) <= cdf(params, y, EXACT), (n, s, y)

    def test_moments_memory_does_not_grow_with_the_longest_game(self):
        # games of about 10**6 turns: a dense histogram would take megabytes
        tracemalloc.start()
        try:
            monte_carlo_moments(GameParams(1, 10**6), trials=100, seed=2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1e6

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
        # so does a game whose uniform is 0, at any s; log(0) warns nothing
        class ZeroUniforms:
            def random(self, count):
                return np.zeros(count)

        params = GameParams(1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert turn_count_histogram(params, 1000, 4).tolist() == [0, 1000]
            est = monte_carlo_moments(params, 1000, 4)
            assert _turn_counts(GameParams(3, 5), 4, ZeroUniforms()).tolist() == [1] * 4
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
