"""Seeded playout of the elimination game and Monte Carlo estimation.

A turn rolls every remaining die once and removes each die showing a
value equal to the current dice count. play_game records a single game
throw by throw, reading faces from blocks of FACE_BLOCK draws. It finds
the next face equal to the dice count with list.index and cuts every
turn up to it from the block at once, so the turns that remove nothing
cost no Python step each. The Monte Carlo entry points never roll faces.
A die meets the dice count with chance 1/s on every turn, whatever the
count, so its exit turn is a Geometric(1/s) variable, independent of the
other dice, and a game lasts the maximum Y of its n exit turns, with
P(Y <= y) = (1 - q**y)**n. Turn counts invert that law, one uniform per
game; only signatures draw each die's exit turn. Games are played in
fixed-size chunks, vectorized across games, with an independent RNG
substream per chunk derived from (seed, chunk index). Chunk boundaries
depend only on the trial count, and chunk results merge by plain integer
addition, so estimates are bit-identical across runs and across any
parallel scheduling of chunks.

Signatures: the sequence of values shown by removed dice, in removal
order (ties within a turn in ascending original die order; they all show
the same value, so the signature itself is unaffected). A die leaving at
turn t shows n minus the number of dice that left before t, so a drawn
game's signature is fixed by which of its sorted exit turns tie.
Each function that runs numpy imports it itself, so enumerating
signatures, and importing this module at all, leaves numpy unloaded.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from .moments import cdf
from .params import (
    FLOAT,
    TURN_CAP,
    GameNotFinishedError,
    GameParams,
    NumericMode,
    check_memory,
    plain_int,
)

T = TypeVar("T")

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


def _check_turn_cap(longest) -> None:
    if longest > TURN_CAP:
        raise GameNotFinishedError(f"game still running after {TURN_CAP} turns")


def play_game(
    params: GameParams,
    seed: int | None = None,
    roll_source: Iterable[int] | None = None,
) -> GameRecord:
    """Play one game and return its transcript.

    Faces come from roll_source when given (any iterable of ints in
    1..s, consumed left to right, one per die per turn), otherwise from
    a generator seeded with seed, which draws int64 faces and so refuses
    s >= 2**63 with ValueError. Exhausting a roll_source mid-game or
    feeding it a non-integer or out-of-range face raises ValueError; no
    face past the game's end is read from it.
    """
    import numpy as np
    _require_playable(params)
    n, s = params.n, params.s
    if roll_source is not None:
        source = iter(roll_source)

        def fresh(count: int) -> list[int]:
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
        if s >= 2**63:
            raise ValueError(
                "a seeded game draws int64 faces, so s must be at most 2**63 - 1; "
                f"pass roll_source to play s={s}"
            )
        rng = np.random.default_rng(_check_seed(seed) if seed is not None else None)

        def fresh(count: int) -> list[int]:
            return rng.integers(1, s + 1, size=max(count, FACE_BLOCK)).tolist()

    turns: list[tuple[int, ...]] = []
    removed_per_turn: list[int] = []
    signature: list[int] = []
    block: list[int] = []
    start = 0  # next unread face in block
    alive = n
    while alive > 0:
        if len(block) - start < alive:
            block, start = block[start:] + fresh(alive), 0
        _check_turn_cap(len(turns) + 1)  # the turn about to be played
        whole = min((len(block) - start) // alive, TURN_CAP - len(turns))
        end = start + whole * alive
        try:  # all turns but the last, which is counted below in any case
            hit = block.index(alive, start, end - alive)
        except ValueError:
            pass
        else:
            end = hit - (hit - start) % alive + alive  # the turns up to the first match
        faces = block[start:end]
        played = list(zip(*[iter(faces)] * alive)) if end - start > alive else [tuple(faces)]
        start = end
        removed = played[-1].count(alive)
        signature += [alive] * removed
        turns += played
        removed_per_turn += [0] * (len(played) - 1) + [removed]
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


def _turn_counts(params: GameParams, count: int, rng: np.random.Generator) -> np.ndarray:
    """Turn counts of `count` games, one uniform U per game.

    A game's turn count is the smallest y with (1 - q**y)**n >= U, that is
    ceil(log(1 - U**(1/n)) / log q), with 1 - U**(1/n) = -expm1(log(U)/n).
    """
    import numpy as np
    turns = rng.random(count)
    # log q = -inf at s = 1 and log(U) = -inf at U = 0 both give one turn;
    # a subnormal 1/s overflows the quotient past the cap
    with np.errstate(divide="ignore", over="ignore"):
        log_q = np.log1p(-params.p)
        np.log(turns, out=turns)
        turns *= 1 / params.n
        np.expm1(turns, out=turns)
        np.negative(turns, out=turns)
        np.log(turns, out=turns)
        turns /= log_q
    np.ceil(turns, out=turns)
    _check_turn_cap(turns.max())
    np.maximum(turns, 1, out=turns)
    return turns.astype(np.int64)


def _signature_chunk(params: GameParams, count: int, rng: np.random.Generator) -> Counter:
    """Signature counts of `count` games, from each die's exit turn.

    Draws each game's n exit turns as one row, row-major, in blocks of
    whole games holding at most CHUNK_TRIALS draws (one game when n is
    larger), so a block's memory does not grow with count.
    """
    n = params.n
    rows = max(1, CHUNK_TRIALS // n)
    signatures: Counter = Counter()
    for start in range(0, count, rows):
        exits = rng.geometric(params.p, size=(min(rows, count - start), n))
        _check_turn_cap(exits.max())  # numpy saturates a draw at 2**63 - 1 when 1/s is tiny
        signatures.update(_signature_counts(exits))
    return signatures


def _signature_counts(exits: np.ndarray) -> dict[tuple[int, ...], int]:
    """Signature counts of the games whose exit turns are the rows of exits.

    Games are grouped by their packed tie pattern (which sorted dice start
    a tie group), read as one big-endian integer of 1, 2, 4 or 8 bytes when
    it fits (zero-padded on the right, so the integers sort as the bytes
    do) and as raw bytes past that; one row per pattern is decoded,
    position i showing n minus the position of its group's first die.
    """
    import numpy as np
    games, n = exits.shape
    exits = np.sort(exits, axis=1)
    starts = np.ones((games, n), dtype=bool)
    np.not_equal(exits[:, 1:], exits[:, :-1], out=starts[:, 1:])
    packed = np.packbits(starts, axis=1)
    width = packed.shape[1]
    if width <= 8:
        size = 1 << (width - 1).bit_length()
        codes = np.zeros((games, size), np.uint8)
        codes[:, :width] = packed
        codes = codes.view(f">u{size}").ravel()
    else:
        codes = packed.view(np.dtype((np.void, width))).ravel()
    _, first, counts = np.unique(codes, return_index=True, return_counts=True)
    levels = n - np.maximum.accumulate(np.where(starts[first], np.arange(n), 0), axis=1)
    return dict(zip(map(tuple, levels.tolist()), counts.tolist()))


def _chunk_results(
    params: GameParams, trials: int, seed: int, kernel: Callable[..., T]
) -> Iterator[T]:
    """Validate a Monte Carlo request, then play it one chunk at a time.

    Yields kernel(params, size, rng) per chunk, rng being the substream
    of (seed, chunk index). Chunk sizes depend only on the trial count.
    """
    import numpy as np
    _require_playable(params)
    seed = _check_seed(seed)
    trials = plain_int(trials, "trials must be a positive integer")
    if trials < 1:
        raise ValueError("trials must be positive")
    if params.p == 0.0:  # 1/s underflows: not one game in 10**300 ends within the cap
        raise GameNotFinishedError(f"game still running after {TURN_CAP} turns")
    for index, done in enumerate(range(0, trials, CHUNK_TRIALS)):
        size = min(CHUNK_TRIALS, trials - done)
        rng = np.random.default_rng(np.random.SeedSequence((seed, index)))
        yield kernel(params, size, rng)


def monte_carlo_moments(params: GameParams, trials: int, seed: int) -> McEstimate:
    """Sample mean and variance of the turn count over seeded games.

    Reads exact integer sums off each chunk's distinct turn counts, so the
    estimate is a pure function of (params, trials, seed), and its memory
    does not grow with the longest game as a dense histogram's would.
    """
    import numpy as np
    trials = plain_int(trials, "trials must be an integer")
    if trials < 2:
        raise ValueError("need at least 2 trials for a variance")
    total = total_sq = 0
    for turn_counts in _chunk_results(params, trials, seed, _turn_counts):
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
        seed=int(seed),  # checked by _chunk_results
    )


def turn_count_histogram(params: GameParams, trials: int, seed: int) -> np.ndarray:
    """Counts of observed turn counts; index y holds how many games took y turns.

    The array is as long as the longest game, so a chunk whose longest game
    would take it past MEMORY_BUDGET raises ValueError, checked after the
    chunk's draws (the seeded streams do not depend on the budget).
    """
    import numpy as np
    hist = np.zeros(1, dtype=np.int64)
    for turn_counts in _chunk_results(params, trials, seed, _turn_counts):
        longest = int(turn_counts.max())
        check_memory(8 * (longest + 1), f"a histogram of games up to {longest} turns")
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
    for signatures in _chunk_results(params, trials, seed, _signature_chunk):
        freq.update(signatures)
    return freq


def ks_statistic(histogram: np.ndarray, params: GameParams, mode: NumericMode = FLOAT) -> float:
    """Sup distance between the empirical turn-count CDF and the model CDF."""
    import numpy as np
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
