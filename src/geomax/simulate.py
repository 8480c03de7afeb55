"""Seeded playout of the elimination game and Monte Carlo estimation.

A turn rolls every remaining die once and removes each die showing a
value equal to the current dice count. play_game records a single game
throw by throw, reading faces from blocks of FACE_BLOCK draws. The Monte
Carlo entry points never roll faces. A die meets the dice count with
chance 1/s on every turn, whatever the count, so its exit turn is a
Geometric(1/s) variable, independent of the other dice, and a game lasts
the maximum of its n exit turns. They play games in fixed-size chunks,
vectorized across games, with an independent RNG substream per chunk
derived from (seed, chunk index). Chunk boundaries depend only on the
trial count, and chunk results merge by plain integer addition, so
estimates are bit-identical across runs and across any parallel
scheduling of chunks.

Signatures: the sequence of values shown by removed dice, in removal
order (ties within a turn in ascending original die order; they all show
the same value, so the signature itself is unaffected). A die leaving at
turn t shows n minus the number of dice that left before t, so a drawn
game's signature is fixed by which of its sorted exit turns tie.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from .moments import cdf
from .params import FLOAT, GameNotFinishedError, GameParams, NumericMode, plain_int

#: A game exceeding this many turns aborts with GameNotFinishedError.
TURN_CAP = 10**9

#: Trials per RNG substream in the Monte Carlo drivers.
CHUNK_TRIALS = 1 << 16

#: Faces a seeded play_game draws per generator call (more if a turn needs more).
FACE_BLOCK = 1 << 8

#: enumerate_signatures refuses n above this (2**23 signatures at n=24).
MAX_ENUMERATION_DICE = 24


@dataclass(frozen=True)
class GameRecord:
    """Full transcript of one game.

    turns[t] holds the faces shown in turn t by the dice still on the
    table, in ascending original die order. removed_per_turn[t] counts
    how many of them matched the dice count and left.
    """

    params: GameParams
    turns: tuple[tuple[int, ...], ...]
    removed_per_turn: tuple[int, ...]
    signature: tuple[int, ...]
    turn_count: int


@dataclass(frozen=True)
class McEstimate:
    mean: float
    variance: float
    std_error_mean: float
    trials: int
    seed: int


def _require_playable(params: GameParams) -> None:
    if params.n > params.s:
        raise ValueError(
            "the game cannot be played with n > s: no die can show the "
            "dice count, so nothing would ever be removed"
        )


def _check_seed(seed: int) -> int:
    seed = plain_int(seed, "seed must be a nonnegative integer")
    if seed < 0:
        raise ValueError("seed must be a nonnegative integer")
    return seed


def play_game(
    params: GameParams,
    seed: int | None = None,
    roll_source: Iterable[int] | None = None,
) -> GameRecord:
    """Play one game and return its transcript.

    Faces come from roll_source when given (any iterable of ints in
    1..s, consumed left to right, one per die per turn), otherwise from
    a generator seeded with seed. Exhausting a roll_source mid-game or
    feeding it a non-integer or out-of-range face raises ValueError.
    """
    _require_playable(params)
    n, s = params.n, params.s
    source: Iterator[int]
    if roll_source is not None:
        source = iter(roll_source)

        def draw(count: int) -> list[int]:
            faces = []
            for _ in range(count):
                try:
                    face = next(source)
                except StopIteration:
                    raise ValueError("roll source exhausted before the game ended")
                face = plain_int(face, f"face {face!r} is not an integer")
                if not 1 <= face <= s:
                    raise ValueError(f"face {face} outside 1..{s}")
                faces.append(face)
            return faces

    else:
        rng = np.random.default_rng(_check_seed(seed) if seed is not None else None)
        block: list[int] = []
        start = 0  # next unread face in block

        def draw(count: int) -> list[int]:
            nonlocal block, start
            if start + count > len(block):
                fresh = rng.integers(1, s + 1, size=max(count, FACE_BLOCK)).tolist()
                block, start = block[start:] + fresh, 0
            start += count
            return block[start - count : start]

    turns: list[tuple[int, ...]] = []
    removed_per_turn: list[int] = []
    signature: list[int] = []
    alive = n
    while alive > 0:
        if len(turns) >= TURN_CAP:
            raise GameNotFinishedError(f"game still running after {TURN_CAP} turns")
        faces = draw(alive)
        removed = sum(1 for face in faces if face == alive)
        turns.append(tuple(faces))
        removed_per_turn.append(removed)
        signature.extend([alive] * removed)
        alive -= removed
    return GameRecord(
        params=params,
        turns=tuple(turns),
        removed_per_turn=tuple(removed_per_turn),
        signature=tuple(signature),
        turn_count=len(turns),
    )


def enumerate_signatures(n: int) -> list[tuple[int, ...]]:
    """All 2**(n-1) attainable signatures, lexicographically descending.

    Built from the block structure: a signature of n dice is i copies of
    n (the dice removed the first time anything leaves) followed by any
    signature of the remaining n - i dice.
    """
    n = plain_int(n, "n must be a positive integer")
    if n < 1:
        raise ValueError("n must be a positive integer")
    if n > MAX_ENUMERATION_DICE:
        raise ValueError(
            f"n={n} would enumerate 2**{n - 1} signatures; refusing above "
            f"n={MAX_ENUMERATION_DICE}"
        )
    levels: list[list[tuple[int, ...]]] = [[()]]
    for m in range(1, n + 1):
        block: list[tuple[int, ...]] = []
        for i in range(m, 0, -1):
            prefix = (m,) * i
            block.extend(prefix + rest for rest in levels[m - i])
        levels.append(block)
    return levels[n]


def is_valid_signature(values: Iterable[int]) -> bool:
    """True when values could be the signature of a len(values)-dice game."""
    sig = tuple(values)
    remaining = len(sig)
    idx = 0
    while remaining > 0:
        run = 0
        while idx + run < len(sig) and sig[idx + run] == remaining:
            run += 1
        if run == 0:
            return False
        idx += run
        remaining -= run
    return idx == len(sig)


def _play_chunk(
    params: GameParams,
    count: int,
    rng: np.random.Generator,
    want_signatures: bool,
) -> tuple[np.ndarray, Counter | None]:
    """Play `count` games at once; returns turn counts and optional signature counts.

    Draws each game's n exit turns as one row, row-major, in blocks of
    whole games holding at most CHUNK_TRIALS draws (one game when n is
    larger), so both results read the same stream and a block's memory
    does not grow with count.
    """
    n = params.n
    rows = max(1, CHUNK_TRIALS // n)
    turn_counts = np.empty(count, dtype=np.int64)
    signatures: Counter | None = Counter() if want_signatures else None
    for start in range(0, count, rows):
        exits = rng.geometric(params.p, size=(min(rows, count - start), n))
        turns = exits.T.copy().max(axis=0)  # numpy reduces short rows in place slowly
        # numpy saturates a draw at 2**63 - 1 when 1/s is tiny; the cap catches it too
        if turns.max() > TURN_CAP:
            raise GameNotFinishedError(f"game still running after {TURN_CAP} turns")
        turn_counts[start : start + turns.size] = turns
        if signatures is not None:
            signatures.update(_signature_counts(exits))
    return turn_counts, signatures


def _signature_counts(exits: np.ndarray) -> dict[tuple[int, ...], int]:
    """Signature counts of the games whose exit turns are the rows of exits.

    Games are grouped by their packed tie pattern (which sorted dice start
    a tie group); one row per pattern is decoded, position i showing n
    minus the position of its group's first die.
    """
    games, n = exits.shape
    exits = np.sort(exits, axis=1)
    starts = np.ones((games, n), dtype=bool)
    np.not_equal(exits[:, 1:], exits[:, :-1], out=starts[:, 1:])
    packed = np.packbits(starts, axis=1)
    codes = packed.view(np.dtype((np.void, packed.shape[1]))).ravel()
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    levels = n - np.maximum.accumulate(np.where(starts[first], np.arange(n), 0), axis=1)
    return dict(zip(map(tuple, levels.tolist()), counts.tolist()))


def _chunk_results(
    params: GameParams, trials: int, seed: int, want_signatures: bool
) -> Iterator[tuple[np.ndarray, Counter | None]]:
    """Validate a Monte Carlo request, then play it one chunk at a time.

    Yields one _play_chunk result per chunk, each from the RNG substream
    of (seed, chunk index). Chunk sizes depend only on the trial count.
    """
    _require_playable(params)
    seed = _check_seed(seed)
    trials = plain_int(trials, "trials must be a positive integer")
    if trials < 1:
        raise ValueError("trials must be positive")
    for index, done in enumerate(range(0, trials, CHUNK_TRIALS)):
        size = min(CHUNK_TRIALS, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        yield _play_chunk(params, size, rng, want_signatures)


def monte_carlo_moments(params: GameParams, trials: int, seed: int) -> McEstimate:
    """Sample mean and variance of the turn count over seeded games.

    Reads exact integer sums off each chunk's distinct turn counts, so the
    estimate is a pure function of (params, trials, seed), and its memory
    does not grow with the longest game as a dense histogram's would.
    """
    _require_playable(params)
    seed = _check_seed(seed)
    trials = plain_int(trials, "trials must be an integer")
    if trials < 2:
        raise ValueError("need at least 2 trials for a variance")
    total = total_sq = 0
    for turn_counts, _ in _chunk_results(params, trials, seed, False):
        values, counts = np.unique(turn_counts, return_counts=True)
        for y, count in zip(values.tolist(), counts.tolist()):
            total += y * count
            total_sq += y * y * count
    mean = total / trials
    # exact integer numerator: no cancellation between the two big sums
    variance = (trials * total_sq - total * total) / (trials * (trials - 1))
    return McEstimate(
        mean=mean,
        variance=variance,
        std_error_mean=math.sqrt(variance / trials),
        trials=trials,
        seed=seed,
    )


def turn_count_histogram(params: GameParams, trials: int, seed: int) -> np.ndarray:
    """Counts of observed turn counts; index y holds how many games took y turns."""
    hist = np.zeros(1, dtype=np.int64)
    for turn_counts, _ in _chunk_results(params, trials, seed, False):
        bc = np.bincount(turn_counts)
        if bc.size > hist.size:
            bc[: hist.size] += hist
            hist = bc
        else:
            hist[: bc.size] += bc
    return hist


def signature_frequencies(params: GameParams, trials: int, seed: int) -> Counter:
    """Observed signature counts over seeded games, keyed by tuple."""
    freq: Counter = Counter()
    for _, signatures in _chunk_results(params, trials, seed, True):
        freq.update(signatures)
    return freq


def ks_statistic(histogram: np.ndarray, params: GameParams, mode: NumericMode = FLOAT) -> float:
    """Sup distance between the empirical turn-count CDF and the model CDF."""
    trials = int(histogram.sum())
    if trials < 1:
        raise ValueError("empty histogram")
    cumulative = np.cumsum(histogram)
    worst = 0.0
    for y in range(1, histogram.size):
        gap = abs(cumulative[y] / trials - cdf(params, y, mode))
        if gap > worst:
            worst = gap
    return worst


def ks_critical_value(trials: int, alpha: float = 0.001) -> float:
    """Asymptotic one-sample KS critical value; conservative for discrete data."""
    if trials < 1:
        raise ValueError("trials must be positive")
    if not 0 < alpha < 1:
        raise ValueError("alpha must lie in (0, 1)")
    return math.sqrt(-math.log(alpha / 2.0) / 2.0) / math.sqrt(trials)
