"""Simultaneous-roll view: the dice-count Markov chain.

The number of dice still on the table is a Markov chain on {0, ..., n};
0 is absorbing, and from k dice the survivors are Binomial(k, q). One
generator builds these transition rows by Pascal's rule, on float64 or
object (Fraction) numpy arrays, so no C(k, j) is ever converted to float.
The rows feed the transition matrix, the one-step recursions for the
first and second moments of the absorption time from every start state,
and, as an independent route, the chain step that pushes the start state
through one turn at a time to get P(T <= t) and, from its survival sums,
the moments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

import numpy as np

from .kernels import _EPS, _U, tail_bound_max_geom, tail_bound_weighted_max_geom
from .params import FLOAT, GameParams, NumericMode


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
    """(p, q, zero, dtype): Fractions on object arrays in exact mode, else doubles."""
    if mode.exact:
        return params.p_exact, params.q_exact, Fraction(0), object
    return params.p, params.q, 0.0, np.float64


def _survivor_rows(params: GameParams, mode: NumericMode) -> Iterator[np.ndarray]:
    """Rows k = 0..n of the transition matrix, row k holding its entries j = 0..k.

    Row k is the Binomial(k, q) law of the survivors, built from row k-1
    by Pascal's rule p * [row, 0] + q * [0, row]. Every entry is a sum of
    positive terms, exact in exact mode.
    """
    p, q, zero, dtype = _arithmetic(params, mode)
    pad = np.array([zero], dtype=dtype)
    row = pad + 1  # row 0: [1]
    for _ in range(params.n):
        yield row
        row = np.concatenate((p * row, pad)) + np.concatenate((pad, q * row))
    yield row


def _stacked_rows(params: GameParams, mode: NumericMode) -> np.ndarray:
    """The transition matrix as one (n+1) x (n+1) array, zero above the diagonal."""
    _, _, zero, dtype = _arithmetic(params, mode)
    matrix = np.full((params.n + 1, params.n + 1), zero, dtype=dtype)
    for k, row in enumerate(_survivor_rows(params, mode)):
        matrix[k, : k + 1] = row
    return matrix


def build_transition_matrix(params: GameParams, mode: NumericMode = FLOAT) -> TransitionMatrix:
    """Survival-count transition matrix for one turn."""
    rows = _stacked_rows(params, mode).tolist()  # plain floats or Fractions
    return TransitionMatrix(n=params.n, rows=tuple(map(tuple, rows)))


def second_moments_recursive(params: GameParams, mode: NumericMode = FLOAT) -> AbsorptionProfile:
    """First and second moments of the absorption time, bottom-up.

    E(T_k) = (1 + sum_{j<k} P[k][j] * E(T_j)) / (1 - P[k][k]) and
    E(T_k**2) = (sum_{j<k} P[k][j] * E(T_j**2) - 1 + 2 E(T_k)) / (1 - P[k][k]),
    both from E(T_0) = E(T_0**2) = 0, streaming the rows in O(n) memory.
    """
    _, _, zero, dtype = _arithmetic(params, mode)
    first, second = np.full((2, params.n + 1), zero, dtype=dtype)
    for k, row in enumerate(islice(_survivor_rows(params, mode), 1, None), start=1):
        # 1 - P[k][k], the chance of losing a die this turn, as a positive sum:
        # no cancellation when q is near 1, and positive since params has p > 0
        complement = row[:k].sum()
        if not complement > 0:
            raise ArithmeticError(f"degenerate diagonal at state {k}")
        first[k] = (1 + row[1:k] @ first[1:k]) / complement
        second[k] = (row[1:k] @ second[1:k] - 1 + 2 * first[k]) / complement
    return AbsorptionProfile(
        params=params, first_moments=tuple(first.tolist()), second_moments=tuple(second.tolist())
    )


def _absorption_steps(params: GameParams, mode: NumericMode) -> Iterator:
    """P(T <= t) for t = 0, 1, 2, ..., one chain step per item, without end.

    The state is a numpy vector over dice counts, float64 in float mode
    and object (Fractions) in exact mode, so one matrix product serves
    both and exact results stay exact.
    """
    rows = _stacked_rows(params, mode)
    state = np.flip(rows[0])  # row 0 is [1, 0, ..., 0]; flipped, all n dice remain
    while True:
        yield state.item(0)
        state = state @ rows


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
    return list(islice(_absorption_steps(params, mode), t_max + 1))


def moments_by_power(params: GameParams, mode: NumericMode = FLOAT) -> tuple[float, float, float]:
    """(mean, second moment, error bound) from the absorption probabilities.

    Sums survival probabilities of the absorption time: the mean is
    sum_t P(T > t) and the second moment sum_t (2t+1) P(T > t), truncated
    once the geometric tail bounds drop below the mode's epsilon. Float
    only; exact mode has no finite evaluation of these sums.
    """
    if mode.exact:
        raise ValueError("matrix-power moments are float-only")
    n, s = params.n, params.s
    if s == 1:
        return 1.0, 1.0, 0.0
    q = params.q
    eps = mode.truncation_epsilon
    mean = 0.0
    m2 = 0.0
    for t, absorbed in enumerate(_absorption_steps(params, mode)):
        tail_mean = tail_bound_max_geom(n, q, t)
        tail_m2 = tail_bound_weighted_max_geom(n, q, t)
        if tail_mean <= eps and tail_m2 <= eps:
            # state error compounds roughly linearly per step; weighted by
            # 2t+1 and summed, the rounding term grows like t**3
            rounding = 4.0 * _EPS * t * (t + 1.0) ** 2
            err = tail_mean + tail_m2 + rounding
            return mean, m2, err
        survival = 1.0 - absorbed
        mean += survival
        m2 += (2 * t + 1) * survival
