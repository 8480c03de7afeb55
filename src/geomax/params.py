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
each refused by check_limit, the one check past a cap, with ValueError
before the work or the array starts.

The parameter and result types, here and in chain, bounds and simulate,
are immutable records on one base, _Record, built without the dataclasses
module, whose import and generated methods cost a process milliseconds.
"""

from __future__ import annotations

import operator
from fractions import Fraction


class CancellationError(ArithmeticError):
    """Alternating-sum evaluation lost too many digits and fallback was off."""


class GameNotFinishedError(RuntimeError):
    """A simulated game hit the iteration cap before all dice were removed."""


#: Most turns a walk over turns may take: a simulated game past it raises
#: GameNotFinishedError, and a float survival sum or chain walk that would
#: need more terms or steps is refused by check_limit before it starts. The
#: recursion's O(n**2) work is held to it too: transition rows 0..n of
#: more than TURN_CAP entries in all, (n+1)(n+2)/2, are refused before the
#: first row (n = 44,719 is the largest n that passes). Exact mode's
#: big-int work is held to it as a count of 30-bit digit products:
#: the recursion over the lcm L of the complements s**k - (s-1)**k, with
#: the reductions of the values it returns (n = s = 150 passes for the
#: moments, in about 0.4 s, 112 for every state's, in up to 0.7 s), before
#: L is built, the closed sums merged over the same L (n = s = 223 passes,
#: in about 0.3 s) before the first term, the exact cdf and pmf points (at
#: n = s = 40 the cdf passes to y = 21,221, in about 0.7 s, and the pmf to
#: 16,060, in about 1 s) before the first power, and an exact chain walk
#: (at n = s = 10 a point or a profile passes to 3,344 turns, in about 1 to
#: 1.7 s; all timings on a 2-vCPU Xeon VM) before its matrix is built. The
#: CLI holds writing the digits of an exact int to it the same way
#: (cli.format_value).
TURN_CAP = 10**9

#: Most bytes (1 GiB) an array that grows with the input may take: the
#: (n+1)**2 transition matrices of a chain walk, as many as it holds at once
#: (chain._matrix_bytes), the Python rows of chain.build_transition_matrix
#: (chain._rows_bytes), the Fractions of an exact chain profile
#: (chain._window_bytes), a dense turn-count histogram
#: (simulate.turn_count_histogram) and the levels of tuples
#: simulate.enumerate_signatures builds. An estimate past it is refused by
#: check_limit before the array is allocated.
MEMORY_BUDGET = 1 << 30

#: Each unit a limit counts, as (the name of its cap in this module, the verb
#: of a refusal). This is the one place a count meets its cap.
LIMITS = {
    "bytes": ("MEMORY_BUDGET", "would take about"),
    "digit products": ("TURN_CAP", "takes up to"),
    "entries": ("TURN_CAP", "hold"),
    "turns": ("TURN_CAP", "needs"),
}


def check_limit(count: int, unit: str, what: str) -> None:
    """Raise ValueError if `what` counts more of `unit` than its cap in LIMITS.

    The cap is read from this module when called, so patching TURN_CAP or
    MEMORY_BUDGET here moves every check. The message reads
    "{what} {verb} {count} {unit}, past {cap name} = {cap}".
    """
    name, verb = LIMITS[unit]
    cap = globals()[name]
    if count > cap:
        raise ValueError(f"{what} {verb} {count} {unit}, past {name} = {cap}")


def plain_int(value, message: str) -> int:
    """value as a plain int if operator.index takes it (bool excepted), else ValueError(message)."""
    if isinstance(value, bool):
        raise ValueError(message)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(message) from None


class _Record:
    """Immutable record: its fields are its attributes, in the order its __init__ stores them.

    A subclass's __init__ checks its arguments and stores them with one
    self.__dict__.update. As a frozen dataclass does, a record prints as
    Name(field=value, ...), equals only a record of its own class with
    equal fields, hashes as the tuple of its fields, refuses assignment
    and deletion with AttributeError, and pickles.
    """

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self.__dict__.items())
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.__dict__ == other.__dict__
        return NotImplemented

    def __hash__(self) -> int:
        return hash(tuple(self.__dict__.values()))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class NumericMode(_Record):
    """Arithmetic regime for the evaluators.

    kind "exact" evaluates every finite formula in arbitrary-precision
    rationals. Infinite series have no exact finite evaluation, so series
    entry points route to the closed forms in that mode. kind "float"
    uses doubles with math.fsum sums and tail-bounded truncation;
    truncation_epsilon is the absolute tail mass at which series stop.
    """

    def __init__(self, kind: str = "float", truncation_epsilon: float = 1e-13) -> None:
        if kind not in ("exact", "float"):
            raise ValueError(f"unknown numeric mode kind {kind!r}")
        if not truncation_epsilon > 0:
            raise ValueError("truncation_epsilon must be positive")
        self.__dict__.update(kind=kind, truncation_epsilon=truncation_epsilon)

    @property
    def exact(self) -> bool:
        return self.kind == "exact"


FLOAT = NumericMode("float")
EXACT = NumericMode("exact")


class GameParams(_Record):
    """Game size: n dice, each with s faces.

    The playable game needs n <= s (while more dice than faces remain, no
    die can show the current dice count and nothing is ever removed). The
    distribution formulas stay valid for any n >= 1, so relaxed=True lifts
    the n <= s check for the analytic evaluators; the simulator refuses
    such parameters regardless. n and s may be any integer-like values
    (see plain_int) and are stored as plain ints.
    """

    def __init__(self, n: int, s: int, relaxed: bool = False) -> None:
        n, s = plain_int(n, "n and s must be integers"), plain_int(s, "n and s must be integers")
        if n < 1 or s < 1:
            raise ValueError("n and s must both be at least 1")
        if n > s and not relaxed:
            raise ValueError(f"n={n} exceeds s={s}; pass relaxed=True to evaluate anyway")
        self.__dict__.update(n=n, s=s, relaxed=relaxed)

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


class MomentReport(_Record):
    """Mean, second moment and variance of the turn count, with provenance.

    error_bound is an absolute estimate covering all three figures; exact
    evaluations report 0. variance always equals
    second_moment - mean**2 as computed, so the identity holds to rounding.
    """

    def __init__(
        self, mean: float | Fraction, second_moment: float | Fraction, variance: float | Fraction,
        method: str, error_bound: float | Fraction,
    ) -> None:
        if method not in METHODS:
            raise ValueError(f"unknown method tag {method!r}")
        if error_bound < 0:
            raise ValueError("error_bound must be nonnegative")
        self.__dict__.update(
            mean=mean, second_moment=second_moment, variance=variance, method=method, error_bound=error_bound
        )
