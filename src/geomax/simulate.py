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
P(Y <= y) = (1 - q**y)**n. A chunk's histogram of turn counts is then
Multinomial(games, law) (Devroye 1986, Non-Uniform Random Variate
Generation, XI.1): _turn_chunk draws it as one multinomial over the
law's turns up to K, tabulated once per call by _turn_table, and inverts
the law conditioned on Y > K for the few games past them, one uniform
each, so a chunk's cost grows with the law's support rather than with
its games. Where the law spreads over more turns than a chunk fills,
K = 0 and every game inverts the law. Signature counts are drawn the
same way, as one multinomial over the exact law of the 2**(n-1)
signatures, tabulated once per call under the same limit on cells
(_signature_law); past it, every die's exit turn is drawn. Games are
played in fixed-size chunks, vectorized across games, with an
independent RNG substream per chunk derived from (seed, chunk index).
Chunk boundaries depend only on the trial count, and chunk results merge
by plain integer addition, so estimates are bit-identical across runs
and across any parallel scheduling of chunks.

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
import operator
import sys
from collections import Counter
from typing import Iterable, Iterator

from . import params as params_module
from .moments import _inverse_law, _log_cdf, cdf
from .params import FLOAT, GameNotFinishedError, GameParams, NumericMode, _Record, check_limit, plain_int

#: Trials per RNG substream in the Monte Carlo drivers.
CHUNK_TRIALS = 1 << 16

#: Faces a seeded play_game draws per generator call (more if a turn needs more).
FACE_BLOCK = 1 << 8


class GameRecord(_Record):
    """Full transcript of one game.

    turns[t] holds the faces shown in turn t by the dice still on the
    table, in ascending original die order. removed_per_turn[t] counts
    how many of them matched the dice count and left.
    """

    def __init__(
        self, params: GameParams, turns: tuple[tuple[int, ...], ...], removed_per_turn: tuple[int, ...],
        signature: tuple[int, ...], turn_count: int,
    ) -> None:
        self.__dict__.update(
            params=params, turns=turns, removed_per_turn=removed_per_turn, signature=signature,
            turn_count=turn_count,
        )


class McEstimate(_Record):
    def __init__(self, mean: float, variance: float, std_error_mean: float, trials: int, seed: int) -> None:
        self.__dict__.update(
            mean=mean, variance=variance, std_error_mean=std_error_mean, trials=trials, seed=seed
        )


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
    if longest > params_module.TURN_CAP:
        raise GameNotFinishedError(f"game still running after {params_module.TURN_CAP} turns")


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
        whole = min((len(block) - start) // alive, params_module.TURN_CAP - len(turns))
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
    signature of the remaining n - i dice. Every level m <= n is held:
    2**(m-1) tuples of 40 + 8m bytes (sys.getsizeof, 64-bit CPython) and a
    reference to each. check_limit refuses their sum past MEMORY_BUDGET
    before the first is built: n = 22 (about 906 MB) passes, n = 23 not.
    """
    n = plain_int(n, "n must be a positive integer")
    if n < 1:
        raise ValueError("n must be a positive integer")
    held = 0
    for m in range(1, n + 1):  # refused by m = MEMORY_BUDGET.bit_length() at the latest
        held += (48 + 8 * m) << (m - 1)
        check_limit(held, "bytes", f"signature levels 1..{m} of n={n}")
    return _signature_levels(n, (), lambda m, i: (m,) * i, lambda prefix, level: [prefix + rest for rest in level])


def _signature_levels(n: int, unit, head, join) -> list:
    """Level n of the pyramid whose level 0 is [unit], all levels held: the order signature_frequencies zips.

    Level m is join(head(m, i), level m - i) for i = m down to 1: i copies of m joined by +
    to each signature of m - i dice (enumerate_signatures), or the jump's factor by * to each product.
    """
    levels = [[unit]]
    for m in range(1, n + 1):
        block = []
        for i in range(m, 0, -1):
            block += join(head(m, i), levels[m - i])
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


#: The chunk kernel tabulates turn y only while P(Y > y) stays at or above
#: this (see _turn_table).
TAIL_FLOOR = 2.0**-20

#: The chunk kernel tabulates no turn unless the law's turns up to
#: TAIL_FLOOR average this many games each (see _turn_table): a tabulated
#: turn costs a binomial draw and its survival, about what 4 inverted games
#: cost (timed at (50, 50) and (20, 20) on a 2-vCPU Xeon VM).
TURN_CELL_GAMES = 8

#: signature_frequencies tabulates the 2**(n-1) signatures only where they
#: average this many games each: a tabulated signature (its law cell, its
#: share of the multinomial and its listing) costs about 1 to 1.5 games
#: drawn die by die (timed at n = s = 13..17 for 10**4 and 65,536 games on
#: a 2-vCPU Xeon VM).
SIGNATURE_CELL_GAMES = 2


def _table_cells(trials: int, cell_games: int) -> int:
    """The most cells a chunk kernel tabulates for a call of `trials` games.

    A tabulated cell costs about as much as cell_games games drawn one by
    one, so a table pays only where its cells average that many games of
    the first chunk.
    """
    return min(trials, CHUNK_TRIALS) // cell_games


def _turn_table(params: GameParams, trials: int) -> np.ndarray:
    """Cells of the chunk kernel's multinomial: P(Y = y) for y = 1..K, then P(Y > K).

    Each cell is a difference of survivals S(y) = P(Y > y) =
    -expm1(moments._log_cdf(params, y)), so no cell is a difference of
    cdfs near 1. The survivals are made non-increasing first, so every
    cell is >= 0 and the cells up to K sum to 1 - S(K) <= 1 within
    rounding, as numpy's multinomial requires of all but the last.

    K depends only on (params, trials): the largest y with S(y) >=
    TAIL_FLOOR, or 0 where that y passes _table_cells(trials,
    TURN_CELL_GAMES). So the table never grows with the longest game, and
    a law spread over more turns than a chunk's games can fill is drawn by
    inversion alone.
    numpy draws cell y as a binomial of the games left, at the ratio of
    its probability to the running remainder 1 - (the cells before it).
    That remainder errs by at most about (K + 1) u, u = 2**-53, while the
    true remainder S(y - 1) is at least TAIL_FLOOR, so with K <= 2**13 the
    ratio is accurate to 2**-20 relative. Its true value is the hazard
    P(Y = y | Y >= y): given Y >= y, m >= 1 dice are still in play on
    turn y, and all of them leave on it with probability p**m <= p = 1/s.
    So no ratio numpy forms passes (1/2)(1 + 2**-19) < 1 for s >= 2. At
    s = 1 every game takes one turn with no draw: S(1) = 0, K = 0 and the
    table is the one cell [1.0].
    """
    import numpy as np
    cap = _table_cells(trials, TURN_CELL_GAMES)
    # S(y) crosses TAIL_FLOOR near stop; the survivals a turn or two past it decide K
    stop = _inverse_law(params, math.log1p(-TAIL_FLOOR))
    if not stop < cap + 1:  # S(cap + 1) >= TAIL_FLOOR: K = 0, no survival needed
        return np.ones(1)
    # S(y) for y = 0 (ln P(Y <= 0) = -inf) to int(stop) + 2
    survival = -np.expm1(np.concatenate(([-math.inf], _log_cdf(params, np.arange(1.0, int(stop) + 3)))))
    # rounding may lift a survival an ulp above the one before it
    np.minimum.accumulate(survival, out=survival)
    k = int(np.count_nonzero(survival >= TAIL_FLOOR)) - 1
    if k > cap:
        k = 0
    cells = survival[: k + 1].copy()
    cells[:-1] -= survival[1 : k + 1]
    return cells


def _turn_chunk(
    params: GameParams, count: int, rng: np.random.Generator, cells: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Turn counts of `count` games: (head, tail).

    head[y - 1] games took y turns, for y = 1..K; tail holds the turn
    count of each game past K, in draw order, as int64. Each caller counts
    the tail as its output needs, so the kernel sorts nothing. The head
    and the tail's size are Multinomial(count, law), drawn by the
    conditional binomials of one rng.multinomial over the cells of
    _turn_table: turns 1..K, then Y > K (with the one cell of K = 0, numpy
    draws nothing). The games past K invert the law conditioned on Y > K,
    one uniform V in [0, 1) each: U = 1 - S(K) (1 - V) is uniform on
    [cdf(K), 1), and the turn count is the smallest y with cdf(y) >= U,
    the ceiling of moments._inverse_law at log U, at least K + 1. log U is
    log1p(-S(K) (1 - V)), which never rounds to 0. At K = 0, S(0) = 1 and
    U = V: the plain inverse law, one uniform per game. log q = -inf at
    s = 1 and U = 0 both give one turn.
    """
    import numpy as np
    k = cells.size - 1
    games = rng.multinomial(count, cells)
    turns = rng.random(games[-1])
    if turns.size:
        np.subtract(1.0, turns, out=turns)
        turns *= -cells[-1]
        # log1p(-1) = -inf at U = 0; a tiny 1/s overflows the quotient past the cap
        with np.errstate(divide="ignore", over="ignore"):
            turns = _inverse_law(params, np.log1p(turns, out=turns))
        np.ceil(turns, out=turns)
        np.maximum(turns, k + 1, out=turns)
        _check_turn_cap(turns.max())
    return games[:-1], turns.astype(np.int64)


def _signature_law(params: GameParams, divide) -> list:
    """P(signature) for each signature of enumerate_signatures(params.n), in its order.

    Skip the turns where nothing leaves: the game then moves from k dice
    to k - i with probability C(k, i) (s-1)**(k-i) / d_k, d_k = s**k -
    (s-1)**k, and a signature's probability is the product of its jumps'
    factors. Each factor is divide(numerator, d_k) of two ints:
    operator.truediv, correctly rounded, or Fraction. The products are
    built level by level, as enumerate_signatures builds its prefixes, so
    a float cell is at most n factors, each within u, times each other:
    within (2n - 1)u relative while it stays a normal double.
    """
    s = params.s
    d = [s**m - (s - 1) ** m for m in range(params.n + 1)]
    return _signature_levels(
        params.n, divide(1, 1), lambda m, i: divide(math.comb(m, i) * (s - 1) ** (m - i), d[m]),
        lambda factor, level: [factor * rest for rest in level],
    )


def _signature_law_chunk(
    params: GameParams, count: int, rng: np.random.Generator, cells: np.ndarray
) -> np.ndarray:
    """Games per signature of `count` games: one rng.multinomial over the law's cells.

    cells is _signature_law in floats, and the counts follow its order.
    The chunk also draws its longest game, the maximum of count n exit
    turns, by _turn_chunk at (count n, s) with the plain inverse law, one
    uniform, only to raise GameNotFinishedError past TURN_CAP as a
    per-die draw would, with the same chance.

    numpy draws each cell as a binomial at its ratio to the running
    remainder 1 - (the cells before it), which errs by at most about
    2**n u, below 2**-36 for the n <= 16 a table admits. The last cell,
    every die leaving alone, stays far above that: its factors
    m (s-1)**(m-1) / d_m are at least (1 - 1/s)**(m-1) >= 1/e for
    m <= n <= s, as d_m <= m s**(m-1), so it is at least e**(1-n), and no
    ratio numpy forms passes 1.
    """
    import numpy as np
    games = rng.multinomial(count, cells)
    _turn_chunk(GameParams(count * params.n, params.s, relaxed=True), 1, rng, np.ones(1))
    return games


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


def _chunk_streams(
    params: GameParams, trials: int, seed: int
) -> Iterator[tuple[int, np.random.Generator]]:
    """Validate a Monte Carlo request, then return each chunk's (size, rng), lazily.

    rng is the substream of (seed, chunk index); chunk sizes depend only
    on the trial count. A 1/s below the smallest normal double raises
    GameNotFinishedError: with p < 2**-1022, P(Y <= TURN_CAP) is below
    TURN_CAP p < 10**-298 at any n.
    """
    import numpy as np
    _require_playable(params)
    seed = _check_seed(seed)
    trials = plain_int(trials, "trials must be a positive integer")
    if trials < 1:
        raise ValueError("trials must be positive")
    if params.p < sys.float_info.min:
        raise GameNotFinishedError(f"game still running after {params_module.TURN_CAP} turns")
    return (
        (min(CHUNK_TRIALS, trials - done), np.random.default_rng(np.random.SeedSequence((seed, index))))
        for index, done in enumerate(range(0, trials, CHUNK_TRIALS))
    )


def _turn_chunks(params: GameParams, trials: int, seed: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """_turn_chunk's (head, tail) per chunk, over one _turn_table for the call."""
    streams = _chunk_streams(params, trials, seed)
    cells = _turn_table(params, int(trials))  # an integer, as the streams checked
    return (_turn_chunk(params, size, rng, cells) for size, rng in streams)


def monte_carlo_moments(params: GameParams, trials: int, seed: int) -> McEstimate:
    """Sample mean and variance of the turn count over seeded games.

    Each chunk is one draw of _turn_chunk: a multinomial over the law's
    tabulated turns and one uniform per game past them. The sums are exact
    integers, over the head's turns weighted by their games and over the
    tail's turn counts one by one (int64 while the tail's squares cannot
    overflow, Python ints from 2**23 turns on), so the estimate is a pure
    function of (params, trials, seed), and its memory does not grow with
    the longest game as a dense histogram's would.
    """
    import numpy as np
    trials = plain_int(trials, "trials must be an integer")
    if trials < 2:
        raise ValueError("need at least 2 trials for a variance")
    total = total_sq = 0
    for head, tail in _turn_chunks(params, trials, seed):
        turns = np.arange(1, head.size + 1)  # K <= 2**13: the head's sums stay far inside int64
        total += int(turns @ head)
        total_sq += int((turns * turns) @ head)
        if tail.max(initial=0) < 1 << 23:  # then the squares sum to below 2**46 * CHUNK_TRIALS
            total += int(tail.sum())
            total_sq += int(tail @ tail)
        else:
            tail = tail.tolist()
            total += sum(tail)
            total_sq += sum(map(operator.mul, tail, tail))
    mean = total / trials
    # exact integer numerator: no cancellation between the two big sums
    variance = (trials * total_sq - total * total) / (trials * (trials - 1))
    return McEstimate(
        mean=mean,
        variance=variance,
        std_error_mean=math.sqrt(variance / trials),
        trials=trials,
        seed=int(seed),  # checked by _chunk_streams
    )


def turn_count_histogram(params: GameParams, trials: int, seed: int) -> np.ndarray:
    """Counts of observed turn counts; index y holds how many games took y turns.

    Drawn chunk by chunk by _turn_chunk, from the streams that
    monte_carlo_moments draws; a chunk's tail is counted by bincount. The
    array is as long as the longest game, so a chunk whose longest game
    would take it past MEMORY_BUDGET raises ValueError, checked after the
    chunk's draws (the seeded streams do not depend on the budget).
    """
    import numpy as np
    hist = np.zeros(1, dtype=np.int64)
    for head, tail in _turn_chunks(params, trials, seed):
        # a tail game outlasts every head game
        longest = int(tail.max()) if tail.size else int(np.flatnonzero(head)[-1]) + 1
        check_limit(8 * (longest + 1), "bytes", f"a histogram of games up to {longest} turns")
        counts = np.bincount(tail, minlength=longest + 1)
        counts[1 : head.size + 1] += head[:longest]
        if counts.size > hist.size:
            counts[: hist.size] += hist
            hist = counts
        else:
            hist[: counts.size] += counts
    return hist


def signature_frequencies(params: GameParams, trials: int, seed: int) -> Counter:
    """Observed signature counts over seeded games, keyed by tuple.

    Where the 2**(n-1) signatures are at most _table_cells(trials,
    SIGNATURE_CELL_GAMES), each chunk draws its counts from the exact law
    by _signature_law_chunk, over one float _signature_law for the call,
    and the summed counts are keyed by one enumerate_signatures listing,
    which holds at most 1/SIGNATURE_CELL_GAMES as many signatures as the
    call has games. Past that, _signature_chunk draws each die's exit turn.
    """
    import numpy as np
    streams = _chunk_streams(params, trials, seed)
    # 2**(n-1) > the cells; trials is an integer, as the streams checked
    if params.n > _table_cells(int(trials), SIGNATURE_CELL_GAMES).bit_length():
        freq: Counter = Counter()
        for size, rng in streams:
            freq.update(_signature_chunk(params, size, rng))
        return freq
    cells = np.array(_signature_law(params, operator.truediv))
    games = sum(_signature_law_chunk(params, size, rng, cells) for size, rng in streams)
    return Counter({sig: c for sig, c in zip(enumerate_signatures(params.n), games.tolist()) if c})


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
