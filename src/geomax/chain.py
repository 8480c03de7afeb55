"""Simultaneous-roll view: the dice-count Markov chain.

The number of dice still on the table is a Markov chain on {0, ..., n};
0 is absorbing, and from k dice the survivors are Binomial(k, q). One
generator builds these transition rows by Pascal's rule, on float64
arrays or, in exact mode, on integer object arrays holding the rows times
s**k, so no C(k, j) is ever converted to float and exact mode builds a
Fraction only for a value it returns.
The rows feed the transition matrix, whose Python rows are built straight
from them, the float one-step recursions for the first and second moments
of the absorption time from every start state, and, as an independent
route, the chain walk that pushes the start state through the turns on the
rows stacked into one array: the absorbed mass P(T <= t) gives the points,
and the live mass P(T > t) the survival terms that moments._survival_sums
turns into the moments. A float walk long enough to pay for M**64 advances
64 turns per pair of matrix products; exact mode and short walks step one
turn per product. Exact mode runs the same
recursion body on no rows: it sums the earlier states by the binomial
transform, in big-int additions. Each entry point passes its counts to
params.check_limit before its work starts: TURN_CAP entries or turns,
MEMORY_BUDGET bytes, and in exact mode TURN_CAP 30-bit digit products of
its big-int work, a count bounded from n and s alone.
Each function that runs numpy imports it itself, so importing geomax,
and every call that never reaches the chain, leaves numpy unloaded.
"""

from __future__ import annotations

import math
import operator
from collections import deque
from fractions import Fraction
from itertools import accumulate, chain, islice, repeat
from typing import Iterator

from .kernels import _U, _exact_moments, _float_p, _lowest_terms, _moments_products
from .params import FLOAT, GameParams, NumericMode, _Record, check_limit


class TransitionMatrix(_Record):
    """Row-stochastic (n+1) x (n+1) matrix over dice counts 0..n."""

    def __init__(self, n: int, rows: tuple[tuple[float | Fraction, ...], ...]) -> None:
        self.__dict__.update(n=n, rows=rows)

    def row(self, i: int) -> tuple[float | Fraction, ...]:
        return self.rows[i]

    def row_sums(self) -> list[float | Fraction]:
        return [sum(row) for row in self.rows]


class AbsorptionProfile(_Record):
    """Absorption-time moments from every start state.

    first_moments[k] is the expected number of turns to finish a game
    that currently has k dice; second_moments holds the matching raw
    second moments. Index 0 is the absorbed state, so both lists start
    at 0.
    """

    def __init__(
        self,
        params: GameParams,
        first_moments: tuple[float | Fraction, ...],
        second_moments: tuple[float | Fraction, ...],
    ) -> None:
        self.__dict__.update(params=params, first_moments=first_moments, second_moments=second_moments)


def _survivor_rows(params: GameParams, mode: NumericMode, rows=None) -> Iterator[np.ndarray]:
    """Rows k = 0..n of the transition matrix, row k holding its entries j = 0..k.

    Row k is the Binomial(k, q) law of the survivors, built in place from
    row k-1 by Pascal's rule p * [row, 0] + q * [0, row]: p * row, then
    q * row added one entry on. Every entry is a sum of positive terms.
    Exact mode runs the rule on 1 and s-1, so row k is the integer row
    C(k, j) (s-1)**j, the law times s**k. Row k is rows[k, :k+1] of a
    given (n+1) x (n+1) zero array, else a view of one of two rows that
    row k+2 overwrites. Its callers check their limits first; the tightest
    for rows 0..n is _moment_recursion's TURN_CAP on their (n+1)(n+2)/2 entries.
    """
    import numpy as np
    p, q, dtype = (1, params.s - 1, object) if mode.exact else (_float_p(params), params.q, float)
    rows = np.zeros((2, params.n + 1), dtype) if rows is None else rows
    rows[0, 0] = 1
    yield rows[0, :1]
    for k in range(1, params.n + 1):
        row, last = rows[k % len(rows), : k + 1], rows[(k - 1) % len(rows), :k]
        np.multiply(last, p, out=row[:k])
        row[1:] += q * last
        yield row


def _digits(params: GameParams, power: int) -> int:
    """30-bit digits of an int below s**power, which has at most power bit_length(s) bits."""
    return -(-power * params.s.bit_length() // 30)


def _triangle_ints_bytes(params: GameParams) -> int:
    """Bytes of (n+1)(n+2)/2 ints below s**n, each a 24-byte header and 4 bytes a digit."""
    return (params.n + 1) * (params.n + 2) // 2 * (24 + 4 * _digits(params, params.n))


def _matrix_bytes(params: GameParams, mode: NumericMode) -> int:
    """Bytes of the (n+1) x (n+1) arrays a chain walk holds at once, from n and s alone.

    Float mode holds three float64 arrays: M, and a power of M and its
    square while np.linalg.matrix_power squares M up to M**BLOCK_TURNS.
    Exact mode holds one object array, 8 bytes a reference, whose lower
    triangle holds ints below s**n (_triangle_ints_bytes). The walk's
    state vectors, of n + 1 entries, are left out.
    """
    if not mode.exact:
        return 3 * 8 * (params.n + 1) ** 2
    return 8 * (params.n + 1) ** 2 + _triangle_ints_bytes(params)


def _rows_bytes(params: GameParams, mode: NumericMode) -> int:
    """Bytes build_transition_matrix holds at its peak, from n and s alone.

    It keeps an 8-byte reference per entry and, per entry of the lower
    triangle, a 24-byte float, or a 48-byte Fraction and two ints below
    s**n. A row keeps a 40-byte tuple header and 17 bytes of references
    (from the list of rows, with its 1/8 slack, and the tuple it becomes).
    Building a row takes at most six 8-byte slots per entry of the row (the
    two rows and the product of Pascal's step, and a list with its slack)
    and in exact mode four integer rows and two ints (s**k and a gcd). What
    does not grow with n stays under 2 KiB: six numpy headers with their
    shapes (768 bytes), the row generator (376), the iterators (232), the
    TransitionMatrix and its dict (352), other headers (< 300).
    """
    n, size = params.n, params.n + 1
    common, triangle = 8 * size**2 + (57 + 48) * size + 2048, size * (n + 2) // 2
    if not mode.exact:
        return common + 24 * triangle
    return common + 48 * triangle + (2 * triangle + 4 * size + 2) * (24 + 4 * _digits(params, n))


def _stacked_rows(params: GameParams, mode: NumericMode) -> np.ndarray:
    """The transition matrix as one (n+1) x (n+1) array, zero above the diagonal.

    Exact mode gives the integer matrix s**n times it: row k is the
    integer row k times s**(n-k). _absorption_steps checks its
    _matrix_bytes against MEMORY_BUDGET first.
    """
    import numpy as np
    n, s = params.n, params.s
    matrix = np.zeros((n + 1, n + 1), object if mode.exact else float)
    deque(_survivor_rows(params, mode, matrix), maxlen=0)  # each row written in place
    if mode.exact:
        matrix *= np.array([s**m for m in range(n, -1, -1)], object)[:, None]
    return matrix


def build_transition_matrix(params: GameParams, mode: NumericMode = FLOAT) -> TransitionMatrix:
    """Survival-count transition matrix for one turn, built row by row from _survivor_rows.

    Where _rows_bytes passes MEMORY_BUDGET, it raises ValueError before
    the first row is built.
    """
    n = params.n
    check_limit(_rows_bytes(params, mode), "bytes", f"the transition matrix rows at n={n}, s={params.s}")
    zero = Fraction(0) if mode.exact else 0.0  # shared by every entry above the diagonal
    rows = []
    for k, row in enumerate(_survivor_rows(params, mode)):
        entries = row.tolist()  # plain floats, or the integer row: the law times s**k
        if mode.exact:
            entries = map(Fraction, entries, repeat(params.s**k))
        rows.append((*entries, *(zero,) * (n - k)))
    return TransitionMatrix(n=n, rows=tuple(rows))


def _lcm_bits(params: GameParams) -> int:
    """Bound on the bits of L = lcm(d_1, ..., d_n), d_k = s**k - (s-1)**k, in O(1) for any n and s.

    d_k is the product over m | k of Phi_m(s, s-1), phi(m) factors s - z (s-1)
    with z a root of unity, and Phi_1 = 1, so L divides their product over
    2 <= m <= n: log2 L <= F log2(2s-1), F = sum_{2<=m<=n} phi(m). F < n**2/2,
    and F < 3n**2/pi**2 + n ln n + n/2, as 2F + 1 is the sum over d <= n of
    mu(d) floor(n/d)**2, each floor squared within 2n/d of (n/d)**2. And
    log2(2s-1) < t + bit_length(h**16) / 16, for 2s-1 shifted right by t
    bits to keep its top 64 bits and h one more than those.
    """
    n, odd = params.n, 2 * params.s - 1
    totients = (3040 * n * n + 6932 * n * n.bit_length() + 5000 * n) // 10000 + 1
    shift = max(odd.bit_length() - 64, 0)
    sixteenths = 16 * shift + (((odd >> shift) + 1) ** 16).bit_length()
    return min(n * (n - 1) // 2, totients) * sixteenths // 16 + 1


def _recursion_products(params: GameParams, every_state: bool) -> int:
    """Bound on the digit products of _moment_recursion in exact mode, from n and bit_length(s).

    Schoolbook arithmetic takes x y digit products to multiply x digits by
    y or to divide x + y digits by y, x**2 for a gcd of x digits, and an
    addition of x digits is counted as x. With c_k, l, a and b the digits
    of s**k (_digits), of L (_lcm_bits), of A_j < L n s and of
    B_j < 2 L**2 n**2 s**2 (T_j is at most j turn counts summed, of mean s
    and second moment 2s**2 - s): L takes, per k, s**k, (s-1)**k, d_k and
    an lcm step (c_k (2 c_1 + c_k + 3l + 1)), then L**2 (l**2); row k
    takes s**k L, s**k L**2 and s**k L A_k (3 c_k l + (c_k + l) a), the
    two divisions by d_k (c_k (a + b)), the scaled states
    (s-1)**(k-1) A_{k-1} and (s-1)**(k-1) B_{k-1} (c_k (a + b)), the
    additions that assemble the two numerators (4 (c_k + b)), and 2k
    additions on each anti-diagonal, whose entries are below s**k times
    the largest state (2k (2 c_k + a + b)). Then every_state makes each of
    the n + 1 states two Fractions (a gcd of A_k and L and one of B_k and
    L**2, a**2 + b**2), else kernels._exact_moments reduces state n.
    """
    n, width = params.n, params.s.bit_length()
    lcm_bits, size = _lcm_bits(params), n.bit_length() + width
    lcm, a, b = (-(-bits // 30) for bits in (lcm_bits, lcm_bits + size, 2 * (lcm_bits + size) + 1))
    reduction = (n + 1) * (a * a + b * b) if every_state else _moments_products(lcm, a, b)
    one, products = _digits(params, 1), lcm * lcm + reduction
    for k in range(1, n + 1):
        digits = -(-k * width // 30)
        products += digits * (2 * one + digits + 6 * lcm + 3 * a + 2 * b + 5) + lcm * a + 4 * b
        products += 2 * k * (2 * digits + a + b)
    return products


def _walk_products(params: GameParams, length: int) -> int:
    """Bound on the digit products of an exact walk of length - 1 turns, from n and bit_length(s).

    Turn t multiplies the (n+1)(n+2)/2 entries of s**n M, each below s**n,
    by state entries below s**(n t), and _absorption_window's denominator
    s**(n t) by s**n, one product more. Summed over t < length, the digits
    of those (_digits) are at most those of s**(n length (length-1)/2)
    plus length - 1 (on a 2-vCPU Xeon VM a walk took about 1 ns per digit
    product). Item t over s**(n t) is in lowest terms, as the closed cdf's
    (1 - q**t)**n is, so its Fraction takes no gcd.
    """
    n, last = params.n, length - 1
    walk = _digits(params, n * length * last // 2) + last
    return ((n + 1) * (n + 2) // 2 + 1) * _digits(params, n) * walk


def _window_bytes(params: GameParams, length: int, first: int) -> int:
    """Bytes of exact items t = first..length-1: two ints below s**(n t) (28 bytes, 4 a digit), a Fraction, two slots."""
    items = length - first
    return 120 * items + 8 * (_digits(params, params.n * (first + length - 1) * items // 2) + items)


def _law_sums(params: GameParams, first, second) -> Iterator[tuple]:
    """(w_k, d_k, sum_{j<k} r_k[j] E(T_j), and of E(T_j**2)) on the law's rows r_k, w_k = 1.

    Each row is read as k comes, in O(n) memory, and each sum is numpy's
    dot with the states the recursion has written so far.
    """
    for k, row in enumerate(islice(_survivor_rows(params, FLOAT), 1, None), start=1):
        # d_k sums nonnegative entries, so nothing cancels, and the largest is >= p/k
        yield 1, row[:k].sum(), row[1:k] @ first[1:k], row[1:k] @ second[1:k]


def _binomial_sums(tops: list, lows: list, complements: list, first: list, second: list):
    """(s**k, d_k, sum_{j<k} C(k, j) (s-1)**j A_j, and of B_j) for k = 1..n, by additions alone.

    tops, lows and complements hold s**k, (s-1)**k and d_k, for k = 1..n.
    With y_j = (s-1)**j A_j, the sum is S_k = sum_{j<k} C(k, j) y_j, the
    binomial transform of y (Graham, Knuth and Patashnik, Concrete
    Mathematics, 5.3). Its Pascal anti-diagonal
    D_i = sum_m C(k-i, m) y_{i+m}, i = 0..k, obeys D_k = y_k and
    D_i = D'_i + D_{i+1}, D' the anti-diagonal of k - 1. y_k enters every
    D_i once, so with E_i the suffix sums of D' (E_k = 0), S_k = E_0 and
    D_i = E_i + y_k. E is kept last entry first, and when state k - 1 has
    been written, row k's E comes from row k - 1's in 2(k - 1) additions;
    B_j works the same way.
    """
    sums = [[], []]
    for k, (top, complement, scale) in enumerate(zip(tops, complements, (1, *lows)), start=1):
        scaled = (scale * first[k - 1], scale * second[k - 1])  # y_{k-1} of each moment
        # row k-1's D_{k-1} = y_{k-1}, then D_i = E_i + y_{k-1} for i = k-2..0, summed as they come
        for moment, y in enumerate(scaled):
            sums[moment] = list(accumulate(map(operator.add, sums[moment], repeat(y)), initial=y))
        yield top, complement, sums[0][-1], sums[1][-1]


def _moment_recursion(params: GameParams, mode: NumericMode, every_state: bool) -> tuple:
    """(first, second, L): L E(T_k) and L**2 E(T_k**2) for k = 0..n, as float arrays or int lists.

    With r_k row k of the transition rows times its weight w_k (1 for the
    law, s**k for the integer row C(k, j) (s-1)**j), d_k = sum_{j<k} r_k[j],
    from state 0 on,
    E(T_k) = (w_k + sum_{j<k} r_k[j] E(T_j)) / d_k and
    E(T_k**2) = (sum_{j<k} r_k[j] E(T_j**2) - w_k + 2 w_k E(T_k)) / d_k.
    One body runs them; (w_k, d_k) and the two sums come from _law_sums in
    float mode, with L = 1, and from _binomial_sums in exact mode, which
    builds no rows: there every state is times L = lcm(d_1, ..., d_n) and
    L**2, which by the closed sums make it an integer, so the body divides
    exactly. Rows 0..n past TURN_CAP entries, as many as exact mode's
    anti-diagonals hold, raise ValueError in either mode, and then in
    exact mode work past TURN_CAP digit products (_recursion_products,
    with the reductions of every state or of state n, as the caller makes)
    raises it, before L is built.
    """
    n, s = params.n, params.s
    check_limit((n + 1) * (n + 2) // 2, "entries", f"the transition rows at n={n}")
    if mode.exact:
        import contextlib
        what = f"the exact recursion at n={n}, s={s}"
        check_limit(_recursion_products(params, every_state), "digit products", what)
        tops, lows = (list(accumulate(repeat(base, n), operator.mul)) for base in (s, s - 1))
        complements = list(map(operator.sub, tops, lows))
        unit, divide = math.lcm(*complements), operator.floordiv
        first, second = [0] * (n + 1), [0] * (n + 1)
        sums = _binomial_sums(tops, lows, complements, first, second)
        guard = contextlib.nullcontext()  # runs no numpy, so loads none
    else:
        import numpy as np
        unit, divide = 1, operator.truediv
        first, second = np.zeros((2, n + 1))
        sums = _law_sums(params, first, second)
        guard = np.errstate(over="ignore", invalid="ignore")  # report._pack refuses an inf or nan
    square = unit * unit
    with guard:
        for k, (weight, complement, first_sum, second_sum) in enumerate(sums, start=1):
            lead = weight * unit
            first[k] = divide(lead + first_sum, complement)
            second[k] = divide(second_sum - weight * square + 2 * (lead * first[k]), complement)
    return first, second, unit


def second_moments_recursive(params: GameParams, mode: NumericMode = FLOAT) -> AbsorptionProfile:
    """First and second moments of the absorption time from every state, bottom-up.

    _moment_recursion runs the one-step recursions in O(n) memory; exact mode
    reduces each state by Fraction's gcds (kernels._exact_moments is slower on
    early states, whose h is large) and counts those n + 1 reductions' products.
    """
    first, second, unit = _moment_recursion(params, mode, True)
    if mode.exact:
        square = unit * unit
        first, second = [Fraction(v, unit) for v in first], [Fraction(v, square) for v in second]
    else:
        first, second = first.tolist(), second.tolist()
    return AbsorptionProfile(params, tuple(first), tuple(second))


def _recursive_moments(params: GameParams, mode: NumericMode = FLOAT) -> tuple:
    """(E(T_n), E(T_n**2)) by _moment_recursion; exact mode's, and Var(T_n), by kernels._exact_moments."""
    first, second, unit = _moment_recursion(params, mode, False)
    if mode.exact:
        return _exact_moments(unit, first[-1], second[-1])
    return first.item(-1), second.item(-1)


#: Turns per block of a long float chain walk: a block costs one product with
#: M**BLOCK_TURNS and one with the BLOCK_TURNS columns M**i e_0. A power of
#: two, so M**BLOCK_TURNS is squarings only.
BLOCK_TURNS = 64


def _absorption_blocks(params: GameParams, mode: NumericMode, length: int, first: int = 0, live: bool = False) -> Iterator:
    """P(T <= t), or P(T > t) if live, for t = 0, 1, ..., length - 1, as one array per block of turns.

    The state is a numpy row vector over dice counts, started at e_n with
    all n dice on the table, so P(T <= t) = e_n M**t e_0, and the live mass
    P(T > t) = e_n M**t 1_live, 1_live the indicator of the states k >= 1,
    sums nonnegative products. A float walk of at least 2(n+1) + B turns,
    B = BLOCK_TURNS, pays for squaring M up to M**B, which costs about as
    much as n single steps: it builds columns[i] = M**i e_0 (or 1_live),
    i < B, by B - 1 matrix-vector products, and a block is the B values
    columns @ state from the state's turn on (fewer in the last), after
    which state @ M**B moves the state on. Any other walk takes blocks of
    one turn, state[:1] (or the sum of state[1:]), and steps the state by M.
    Exact mode steps an integer state by the integer matrix s**n M, so
    after t steps the state is s**(n*t) times the law, and item t is the
    integer s**(n*t) P(T <= t); _absorption_window makes Fractions of the
    items it returns, those from turn first on. When it is called, before
    M is built, a walk past TURN_CAP turns, matrices past MEMORY_BUDGET
    (_matrix_bytes), an exact walk past TURN_CAP digit products
    (_walk_products) and exact items past MEMORY_BUDGET (_window_bytes)
    are refused (check_limit), in that order;
    M, its powers and the columns are built then, and the walk's steps as
    its blocks are read.
    """
    import numpy as np
    n, s = params.n, params.s
    check_limit(length - 1, "turns", "the chain walk")
    check_limit(_matrix_bytes(params, mode), "bytes", f"the transition matrices at n={n}, s={s}")
    if mode.exact:
        what = f"the exact chain walk of {length - 1} turns at n={n}, s={s}"
        check_limit(_walk_products(params, length), "digit products", what)
        what = f"the exact points of turns {first}..{length - 1} at n={n}, s={s}"
        check_limit(_window_bytes(params, length, first), "bytes", what)
    rows = _stacked_rows(params, mode)
    read = slice(1, None) if live else slice(0, 1)  # the live states, or the absorbed one
    block, jump = 1, rows
    if not mode.exact and length >= 2 * (n + 1) + BLOCK_TURNS:
        block, jump = BLOCK_TURNS, np.linalg.matrix_power(rows, BLOCK_TURNS)
        columns = np.zeros((block, n + 1))
        columns[0, read] = 1.0
        for i in range(1, block):
            columns[i] = rows @ columns[i - 1]

    def walk(state):
        for t in range(0, length, block):
            if t:
                state = state @ jump
            if block > 1:
                yield (columns @ state)[: length - t]
            else:
                yield state[read].sum(keepdims=True) if live else state[read]

    start = np.zeros(n + 1, dtype=rows.dtype)
    start[-1] = 1
    return walk(start)


def _absorption_steps(params: GameParams, mode: NumericMode, length: int, first: int = 0) -> Iterator:
    """The items of _absorption_blocks one by one: floats, or in exact mode ints."""
    return chain.from_iterable(block.tolist() for block in _absorption_blocks(params, mode, length, first))


def _absorption_window(params: GameParams, first: int, last: int, mode: NumericMode) -> list:
    """[P(T <= t) for t in first..last]; exact mode builds Fractions for these t only, without a gcd."""
    window = list(islice(_absorption_steps(params, mode, last + 1, first), first, None))
    if mode.exact:  # item t over s**(n t), in lowest terms (_walk_products)
        units = islice(accumulate(repeat(params.s**params.n, last), operator.mul, initial=1), first, None)
        window = [_lowest_terms(value, unit) for value, unit in zip(window, units)]
    return window


def absorption_step_bound(params: GameParams, t):
    """Bound on |P(T <= t) - exact| for the float chain: m u / (1 - m u), for an int or array t.

    m = t(5n+1), except past the first block of B = BLOCK_TURNS turns,
    where m = t(5n-1) + max(2t, n+3).

    A rounding is a factor (1 + d), |d| <= u = 2**-53: fl(1/s) has one,
    fl(1 - p) two (p/q <= 1), a Pascal level two more, so row k of M
    carries at most 4k - 2, and a product of nonnegative arrays over the
    n + 1 dice counts adds n + 1 to each of its terms. Every value is such
    a sum of nonnegative products, so one whose terms carry at most k
    factors errs by at most k u / (1 - k u) times its exact value, which
    is at most 1 (Higham 2002, lemmas 3.1 and 3.3). Counted per walk:

    * a one-turn step, state @ M, adds 5n - 1, so the state after t turns,
      and the value state[0], carry t(5n - 1);
    * M**B by squaring carries B(4n - 2) + (B - 1)(n + 1), so a block's
      state @ M**B adds at most B(5n - 1), and the state after t0 turns
      again carries t0(5n - 1);
    * columns[i] = M**i e_0 carries i(5n - 1), and the value
      columns[i] @ state at t = t0 + i carries t(5n - 1) + n + 1, but in the
      first block, where the state is e_n, the product is exact: t(5n - 1).

    This formula rounds twice, 1 - m u and the division, which two more
    factors cover. The spare 2t of t(5n+1) covers them, and past the first
    block the extra n + 1 too while n + 3 <= 2t; where it does not, m is
    t(5n - 1) + n + 3. Twice the bound at t covers a pmf point. The live mass
    counts alike, a one-turn walk's sum of state[1:] adding n - 1: at most t(5n - 1) + n + 1.
    """
    import numpy as np
    least = (t >= BLOCK_TURNS) * (params.n + 3)  # the spare past the first block
    spare = np.maximum(2 * t, least) if isinstance(t, np.ndarray) else max(2 * t, least)
    count = (t * (5 * params.n - 1) + spare) * _U
    return count / (1 - count)


def absorption_cdf_profile(params: GameParams, t_max: int, mode: NumericMode = FLOAT) -> list:
    """Absorption probabilities [P(T <= t) for t in 0..t_max] in one sweep."""
    if t_max < 0:
        raise ValueError("t_max must be nonnegative")
    return _absorption_window(params, 0, t_max, mode)


def _survival_terms(params: GameParams, stop: int):
    """Survival-term source for moments._survival_sums: P(T > t), the walk's live mass, t < stop.

    Each call reads the walk's next blocks of turns as arrays, keeping the
    turns past its own for the next call. A weighted term carries at most
    m = t(5n - 1) + n + 2 rounding factors, the live mass's count in
    absorption_step_bound and one for the weight 2t+1, so it errs by at
    most m u / (1 - m u) of its exact value, m u / (1 - 2m u) of itself. Three
    more, for 1 - 2m u, the division and the product with the term, give m + 3.
    """
    import numpy as np
    blocks = _absorption_blocks(params, FLOAT, stop, live=True)
    ahead = next(blocks)[1:]  # P(T > t) from t = 1 on, read past the last call's turns

    def terms_of(t: np.ndarray):
        nonlocal ahead
        parts, count = [ahead], ahead.size
        while count < t.size:
            parts.append(next(blocks))
            count += parts[-1].size
        live = np.concatenate(parts)
        ahead = live[t.size :]
        factors = t * (5 * params.n - 1) + (params.n + 5)  # m + 3
        return live[: t.size], factors * _U / (1 - 2 * _U * factors)

    return terms_of
