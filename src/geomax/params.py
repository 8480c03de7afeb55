"""Shared parameter and result types for the elimination-game turn count.

The game: n dice with s faces each are rolled together once per turn, and
every die showing a value equal to the current number of dice is removed.
The number of turns until no dice remain is distributed as the maximum of
n independent geometric variables with success probability 1/s, which is
what every evaluator in this package computes.

Exact mode returns ``fractions.Fraction`` values; float mode returns IEEE
doubles, finite and with a finite bound, or raises ValueError naming the
limit it passed, CancellationError (method "closed" only) or
GameNotFinishedError (the simulator). In both modes, walks over turns stop
at TURN_CAP and the arrays that grow with the input at MEMORY_BUDGET,
each refused with ValueError before the work or the array starts.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction


class CancellationError(ArithmeticError):
    """Alternating-sum evaluation lost too many digits and fallback was off."""


class GameNotFinishedError(RuntimeError):
    """A simulated game hit the iteration cap before all dice were removed."""


#: Most turns a walk over turns may take: a simulated game past it raises
#: GameNotFinishedError, and a float survival sum or chain walk that would
#: need more terms or steps raises ValueError before it starts. The
#: recursion's O(n**2) work is held to it too: transition rows 0..n of
#: more than TURN_CAP entries in all, (n+1)(n+2)/2, raise ValueError
#: before the first row (n = 44,719 is the largest n that passes). Exact
#: mode's big-int work is held to it as a count of 30-bit digit products:
#: the recursion's Horner sums (n = s = 130 passes, in about 1 s) raise
#: ValueError before the first row, and an exact chain walk with the
#: Fractions it returns (at n = s = 10 a point passes to 3,336 turns and a
#: profile to 1,007, each in about 1 s on a 2-vCPU Xeon VM) before its
#: matrix is built. The CLI holds writing the digits of an exact int to it
#: the same way (cli.format_value).
TURN_CAP = 10**9

#: Most bytes (1 GiB) an array that grows with the input may take: the
#: (n+1)**2 transition matrices of a chain walk, as many as it holds at once
#: (chain._matrix_bytes), the Python rows of chain.build_transition_matrix
#: (chain._rows_bytes), and a dense turn-count histogram
#: (simulate.turn_count_histogram). An estimate past it raises ValueError
#: before the array is allocated.
MEMORY_BUDGET = 1 << 30


def check_memory(need: int, what: str) -> None:
    """Raise ValueError naming MEMORY_BUDGET if `what` would take more bytes than it."""
    if need > MEMORY_BUDGET:
        raise ValueError(
            f"{what} would take about {need} bytes, past MEMORY_BUDGET = {MEMORY_BUDGET}"
        )


def plain_int(value, message: str) -> int:
    """value as a plain int if operator.index takes it (bool excepted), else ValueError(message)."""
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(message) from None


@dataclass(frozen=True)
class NumericMode:
    """Arithmetic regime for the evaluators.

    kind "exact" evaluates every finite formula in arbitrary-precision
    rationals. Infinite series have no exact finite evaluation, so series
    entry points route to the closed forms in that mode. kind "float"
    uses doubles with math.fsum sums and tail-bounded truncation;
    truncation_epsilon is the absolute tail mass at which series stop.
    """

    kind: str = "float"
    truncation_epsilon: float = 1e-13

    def __post_init__(self) -> None:
        if self.kind not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode kind {self.kind!r}")
        if not self.truncation_epsilon > 0:
            raise ValueError("truncation_epsilon must be positive")

    @property
    def exact(self) -> bool:
        return self.kind == "exact"


FLOAT = NumericMode("float")
EXACT = NumericMode("exact")


@dataclass(frozen=True)
class GameParams:
    """Game size: n dice, each with s faces.

    The playable game needs n <= s (while more dice than faces remain, no
    die can show the current dice count and nothing is ever removed). The
    distribution formulas stay valid for any n >= 1, so relaxed=True lifts
    the n <= s check for the analytic evaluators; the simulator refuses
    such parameters regardless. n and s may be any integer-like values
    (see plain_int) and are stored as plain ints.
    """

    n: int
    s: int
    relaxed: bool = False

    def __post_init__(self) -> None:
        for name in ("n", "s"):
            value = plain_int(getattr(self, name), "n and s must be integers")
            object.__setattr__(self, name, value)
        if self.n < 1 or self.s < 1:
            raise ValueError("n and s must both be at least 1")
        if self.n > self.s and not self.relaxed:
            raise ValueError(
                f"n={self.n} exceeds s={self.s}; pass relaxed=True to evaluate anyway"
            )

    @property
    def p(self) -> float:
        """Per-turn removal probability of a single die, as a double; see kernels._float_p."""
        return 1 / self.s  # int division rounds once and never overflows

    @property
    def q(self) -> float:
        return 1.0 - self.p

    @property
    def q_exact(self) -> Fraction:
        return 1 - Fraction(1, self.s)


#: Provenance tags a MomentReport may carry.
METHODS = ("closed-alternating", "series", "recursive", "matrix-power")


@dataclass(frozen=True)
class MomentReport:
    """Mean, second moment and variance of the turn count, with provenance.

    error_bound is an absolute estimate covering all three figures; exact
    evaluations report 0. variance always equals
    second_moment - mean**2 as computed, so the identity holds to rounding.
    """

    mean: float | Fraction
    second_moment: float | Fraction
    variance: float | Fraction
    method: str
    error_bound: float | Fraction

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown method tag {self.method!r}")
        if self.error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
