"""Simultaneous-roll view: the dice-count Markov chain.

The number of dice still on the table is a Markov chain on {0, ..., n};
0 is absorbing, and from k dice the survivors are Binomial(k, q). One
generator builds these transition rows by Pascal's rule, on float64
arrays or, in exact mode, on integer object arrays holding the rows times
s**k, so no C(k, j) is ever converted to float and exact mode builds a
Fraction only for a value it returns.
The rows feed the transition matrix, the one-step recursions for the
first and second moments of the absorption time from every start state,
and, as an independent route, the chain step that pushes the start state
through one turn at a time to get P(T <= t), whose survival terms
moments._survival_sums turns into the moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

import numpy as np

from .kernels import _U
from .params import EXACT, FLOAT, GameParams, NumericMode


@dataclass(frozen=True)
class TransitionMatrix:
    """Row-stochastic (n+1) x (n+1) matrix over dice counts 0..n."""

    n: int
    rows: tuple[tuple[float | Fraction, ...], ...]

    def row(self, i: int) -> tuple[float | Fraction, ...]:
        return self.rows[i]

    def row_sums(self) -> list[float | Fraction]:
        return [sum(row) for row in self.rows]


@dataclass(frozen=True)
class AbsorptionProfile:
    """Absorption-time moments from every start state.

    first_moments[k] is the expected number of turns to finish a game
    that currently has k dice; second_moments holds the matching raw
    second moments. Index 0 is the absorbed state, so both lists start
    at 0.
    """

    params: GameParams
    first_moments: tuple[float | Fraction, ...]
    second_moments: tuple[float | Fraction, ...]


def _arithmetic(params: GameParams, mode: NumericMode):
    """(p, q, zero, dtype): doubles, or in exact mode s p = 1 and s q = s-1 on object arrays."""
    if mode.exact:
        return 1, params.s - 1, 0, object
    return params.p, params.q, 0.0, np.float64


def _survivor_rows(params: GameParams, mode: NumericMode) -> Iterator[np.ndarray]:
    """Rows k = 0..n of the transition matrix, row k holding its entries j = 0..k.

    Row k is the Binomial(k, q) law of the survivors, built from row k-1
    by Pascal's rule p * [row, 0] + q * [0, row]. Every entry is a sum of
    positive terms. Exact mode runs the rule on 1 and s-1, so row k is
    the integer row C(k, j) (s-1)**j, the law times s**k.
    """
    p, q, zero, dtype = _arithmetic(params, mode)
    pad = np.array([zero], dtype=dtype)
    row = pad + 1  # row 0: [1]
    for _ in range(params.n):
        yield row
        row = np.concatenate((p * row, pad)) + np.concatenate((pad, q * row))
    yield row


def _stacked_rows(params: GameParams, mode: NumericMode) -> np.ndarray:
    """The transition matrix as one (n+1) x (n+1) array, zero above the diagonal.

    Exact mode gives the integer matrix s**n times it: row k is the
    integer row k times s**(n-k).
    """
    n = params.n
    _, _, zero, dtype = _arithmetic(params, mode)
    matrix = np.full((n + 1, n + 1), zero, dtype=dtype)
    for k, row in enumerate(_survivor_rows(params, mode)):
        matrix[k, : k + 1] = row * params.s ** (n - k) if mode.exact else row
    return matrix


def build_transition_matrix(params: GameParams, mode: NumericMode = FLOAT) -> TransitionMatrix:
    """Survival-count transition matrix for one turn."""
    rows = _stacked_rows(params, mode).tolist()  # plain floats or ints
    if mode.exact:
        unit = params.s**params.n
        rows = [[Fraction(entry, unit) for entry in row] for row in rows]
    return TransitionMatrix(n=params.n, rows=tuple(map(tuple, rows)))


def _integer_recursion(params: GameParams) -> Iterator[tuple[int, int, int]]:
    """(N_k, Q_k, D_k) for k = 1..n: E(T_k) = N_k / D_k and E(T_k**2) = Q_k / D_k**2.

    With r_k the integer row k and d_k = s**k - (s-1)**k = sum_{j<k} r_k[j],
    multiplying second_moments_recursive's recursions by s**k gives
    E(T_k) = (s**k + sum_j r_k[j] E(T_j)) / d_k and
    E(T_k**2) = (sum_j r_k[j] E(T_j**2) - s**k + 2 s**k E(T_k)) / d_k.
    Over D_k = d_1 ... d_k they become integer recursions,
    N_k = s**k D_{k-1} + sum_{j<k} r_k[j] N_j prod_{j<i<k} d_i and
    Q_k = d_k (sum_{j<k} r_k[j] Q_j prod_{j<i<k} d_i**2 - s**k D_{k-1}**2)
          + 2 s**k N_k D_{k-1},
    both sums taken by Horner's rule; nothing is reduced.
    """
    numerators, squares, complements, complement_squares = [0], [0], [1], [1]  # state 0
    denominator = 1  # D_{k-1}
    for k, row in enumerate(islice(_survivor_rows(params, EXACT), 1, None), start=1):
        row = row.tolist()
        power = params.s**k
        complement = sum(row[:k])  # d_k, a positive sum
        if not complement > 0:
            raise ArithmeticError(f"degenerate diagonal at state {k}")
        first = second = 0
        for j in range(1, k):
            first = first * complements[j] + row[j] * numerators[j]
            second = second * complement_squares[j] + row[j] * squares[j]
        numerator = power * denominator + first
        square = complement * (second - power * denominator**2)
        square += 2 * power * numerator * denominator
        denominator *= complement
        numerators.append(numerator)
        squares.append(square)
        complements.append(complement)
        complement_squares.append(complement * complement)
        yield numerator, square, denominator


def _float_recursion(params: GameParams) -> tuple[np.ndarray, np.ndarray]:
    """First and second moments from every state, in doubles, as two arrays."""
    first, second = np.zeros((2, params.n + 1))
    for k, row in enumerate(islice(_survivor_rows(params, FLOAT), 1, None), start=1):
        # 1 - P[k][k], the chance of losing a die this turn, as a positive sum:
        # no cancellation when q is near 1, and positive since params has p > 0
        complement = row[:k].sum()
        if not complement > 0:
            raise ArithmeticError(f"degenerate diagonal at state {k}")
        first[k] = (1 + row[1:k] @ first[1:k]) / complement
        second[k] = (row[1:k] @ second[1:k] - 1 + 2 * first[k]) / complement
    return first, second


def second_moments_recursive(params: GameParams, mode: NumericMode = FLOAT) -> AbsorptionProfile:
    """First and second moments of the absorption time, bottom-up.

    E(T_k) = (1 + sum_{j<k} P[k][j] * E(T_j)) / (1 - P[k][k]) and
    E(T_k**2) = (sum_{j<k} P[k][j] * E(T_j**2) - 1 + 2 E(T_k)) / (1 - P[k][k]),
    both from E(T_0) = E(T_0**2) = 0, streaming the rows in O(n) memory.
    Exact mode runs them on integers (_integer_recursion) and reduces
    each state's Fractions once.
    """
    if mode.exact:
        states = [
            (Fraction(num, den), Fraction(sq, den * den))
            for num, sq, den in _integer_recursion(params)
        ]
        first, second = ((Fraction(0), *column) for column in zip(*states))
    else:
        first, second = (tuple(column.tolist()) for column in _float_recursion(params))
    return AbsorptionProfile(params=params, first_moments=first, second_moments=second)


def _recursive_moments(params: GameParams, mode: NumericMode = FLOAT) -> tuple:
    """(E(T_n), E(T_n**2)) by second_moments_recursive; exact mode reduces state n only."""
    if mode.exact:
        *_, (num, sq, den) = _integer_recursion(params)
        return Fraction(num, den), Fraction(sq, den * den)
    first, second = _float_recursion(params)
    return first.item(-1), second.item(-1)


def _absorption_steps(params: GameParams, mode: NumericMode) -> Iterator:
    """P(T <= t) for t = 0, 1, 2, ..., one chain step per item, without end.

    The state is a numpy vector over dice counts, started with all n dice
    on the table. Float mode steps it by the float64 matrix. Exact mode
    steps an integer state by the integer matrix s**n P, so after t steps
    the state is s**(n*t) times the law, and item t is the integer
    s**(n*t) P(T <= t); _absorption_window makes Fractions of the items
    it returns.
    """
    rows = _stacked_rows(params, mode)
    state = np.zeros(params.n + 1, dtype=rows.dtype)
    state[-1] = 1
    while True:
        yield state.item(0)
        state = state @ rows


def _absorption_window(params: GameParams, first: int, last: int, mode: NumericMode) -> list:
    """[P(T <= t) for t in first..last]; exact mode reduces a Fraction for these t only."""
    window = list(islice(_absorption_steps(params, mode), first, last + 1))
    if mode.exact:
        unit = params.s**params.n
        window = [Fraction(value, unit**t) for t, value in enumerate(window, start=first)]
    return window


def absorption_step_bound(params: GameParams, t: int) -> float:
    """Bound on |P(T <= t) - exact| for the float chain: m u / (1 - m u), m = t(5n+1).

    A rounding is a factor (1 + d), |d| <= u = 2**-53: fl(1/s) has one,
    fl(1 - p) two (p/q <= 1), a Pascal level two more, so row k carries at
    most 4k - 2, and a step's dot products of nonnegative terms n + 1. A
    step so errs by at most (5n-1)u / (1 - (5n-1)u) times the state's
    1-norm, which the stochastic matrix never grows, and t steps by that
    compounded (Higham 2002, lemma 3.3). The 2t spare factors cover this
    formula's two roundings; twice the bound at t covers a pmf point.
    """
    count = t * (5 * params.n + 1) * _U
    return count / (1 - count)


def absorption_cdf_profile(params: GameParams, t_max: int, mode: NumericMode = FLOAT) -> list:
    """Absorption probabilities [P(T <= t) for t in 0..t_max] in one sweep."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    return _absorption_window(params, 0, t_max, mode)


def _survival_terms(params: GameParams):
    """Survival-term source for moments._survival_sums: P(T > t) = 1 - P(T <= t).

    Each call reads the next block of float chain steps. A term errs by at
    most the step's absorption_step_bound b_t, plus u for the subtraction
    and u for the weight 2t+1: relative bound 2u, absolute bound b_t. The
    products u b_t are second order and fall inside the step bound's
    spare factors.
    """
    steps = islice(_absorption_steps(params, FLOAT), 1, None)

    def terms_of(t: np.ndarray):
        absorbed = np.fromiter(steps, np.float64, count=t.size)
        return 1.0 - absorbed, 2 * _U, absorption_step_bound(params, t)

    return terms_of
