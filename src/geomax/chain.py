"""Simultaneous-roll view: the dice-count Markov chain.

The number of dice still on the table is a Markov chain on {0, ..., n}.
From i dice, exactly j survive a turn with probability
C(i, j) * p**(i-j) * q**j, and 0 is absorbing. This module builds that
transition matrix, runs the one-step recursions for first and second
moments of the absorption time from every start state, and, as an
independent route, pushes the start state through the chain one turn at
a time to get the absorption probabilities P(T <= t) and, from their
survival sums, the moments.

The matrix and the recursion are plain tuples of entries, which keeps
them polymorphic between floats and Fractions; the chain step is one
numpy matrix product, on float64 or object (Fraction) entries.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from typing import Iterator

import numpy as np

from .kernels import (
    _EPS,
    binomial,
    tail_bound_max_geom,
    tail_bound_weighted_max_geom,
)
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


def build_transition_matrix(params: GameParams, mode: NumericMode = FLOAT) -> TransitionMatrix:
    """Survival-count transition matrix for one turn."""
    n = params.n
    if mode.exact:
        p, q = params.p_exact, params.q_exact
        zero = Fraction(0)
    else:
        p, q = params.p, params.q
        zero = 0.0
    rows = []
    for i in range(n + 1):
        row = [zero] * (n + 1)
        for j in range(i + 1):
            row[j] = binomial(i, j) * p ** (i - j) * q**j
        rows.append(tuple(row))
    return TransitionMatrix(n=n, rows=tuple(rows))


def second_moments_recursive(params: GameParams, mode: NumericMode = FLOAT) -> AbsorptionProfile:
    """First and second moments of the absorption time, bottom-up.

    E(T_k) = (1 + sum_{j<k} P[k][j] * E(T_j)) / (1 - P[k][k]) and
    E(T_k**2) = (sum_{j<k} P[k][j] * E(T_j**2) - 1 + 2 E(T_k)) / (1 - P[k][k]),
    both from E(T_0) = E(T_0**2) = 0.
    """
    matrix = build_transition_matrix(params, mode)
    zero = Fraction(0) if mode.exact else 0.0
    first = [zero]
    second = [zero]
    for k in range(1, params.n + 1):
        row = matrix.rows[k]
        # 1 - P[k][k] is the per-turn probability of losing at least one die;
        # it is positive whenever p > 0, which params guarantees.
        complement = 1 - row[k]
        if not complement > 0:
            raise ArithmeticError(f"degenerate diagonal at state {k}")
        first_acc = 1 + sum(row[j] * first[j] for j in range(1, k))
        ev = first_acc / complement
        first.append(ev)
        second_acc = sum(row[j] * second[j] for j in range(1, k)) - 1 + 2 * ev
        second.append(second_acc / complement)
    return AbsorptionProfile(
        params=params, first_moments=tuple(first), second_moments=tuple(second)
    )


def _absorption_steps(params: GameParams, mode: NumericMode) -> Iterator:
    """P(T <= t) for t = 0, 1, 2, ..., one chain step per item, without end.

    The state is a numpy vector over dice counts, float64 in float mode
    and object (Fractions) in exact mode, so one matrix product serves
    both and exact results stay exact.
    """
    zero, one = (Fraction(0), Fraction(1)) if mode.exact else (0.0, 1.0)
    dtype = object if mode.exact else np.float64
    rows = np.array(build_transition_matrix(params, mode).rows, dtype=dtype)
    state = np.full(params.n + 1, zero, dtype=dtype)
    state[params.n] = one
    while True:
        yield state.item(0)
        state = state @ rows


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
