"""Simultaneous-roll view: the dice-count Markov chain.

The number of dice still on the table is a Markov chain on {0, ..., n};
0 is absorbing, and from k dice the survivors are Binomial(k, q). One
generator builds these transition rows by Pascal's rule, on float64
arrays or, in exact mode, on integer object arrays holding the rows times
s**k, so no C(k, j) is ever converted to float and exact mode builds a
Fraction only for a value it returns.
The rows feed the transition matrix, whose Python rows are built straight
from them, the one-step recursions for the first and second moments of
the absorption time from every start state, and, as an independent route,
the chain walk that pushes the start state through the turns to get
P(T <= t) on the rows stacked into one array, whose survival terms
moments._survival_sums turns into the moments. A float walk long enough
to pay for M**64 advances 64 turns per pair of matrix products; exact mode
and short walks step one turn per product. Each entry point checks its
limits before its work starts: TURN_CAP rows or turns, MEMORY_BUDGET bytes,
and in exact mode TURN_CAP 30-bit digit products of its big-int work, a
count bounded from n and bit_length(s) alone.
Each function that runs numpy imports it itself, so importing geomax,
and every call that never reaches the chain, leaves numpy unloaded.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, islice, repeat
from typing import Iterator

from .kernels import _U, _float_p
from .params import EXACT, FLOAT, TURN_CAP, GameParams, NumericMode, check_memory


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


def _survivor_rows(params: GameParams, mode: NumericMode) -> Iterator[np.ndarray]:
    """Rows k = 0..n of the transition matrix, row k holding its entries j = 0..k.

    Row k is the Binomial(k, q) law of the survivors, built from row k-1
    by Pascal's rule p * [row, 0] + q * [0, row]. Every entry is a sum of
    positive terms. Exact mode runs the rule on 1 and s-1, so row k is
    the integer row C(k, j) (s-1)**j, the law times s**k. Rows holding
    more than TURN_CAP entries in all, (n+1)(n+2)/2, raise ValueError
    when it is called, before any row is built.
    """
    n = params.n
    entries = (n + 1) * (n + 2) // 2
    if entries > TURN_CAP:
        raise ValueError(
            f"the transition rows at n={n} hold {entries} entries, past TURN_CAP = {TURN_CAP}"
        )
    import numpy as np
    p, q, dtype = (1, params.s - 1, object) if mode.exact else (_float_p(params), params.q, float)
    pad = np.zeros(1, dtype)
    return accumulate(
        range(n),
        lambda row, _: np.concatenate((p * row, pad)) + np.concatenate((pad, q * row)),
        initial=pad + 1,  # row 0: [1]
    )


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
    Building a row takes at most six 8-byte slots per entry of the row (four
    numpy rows of Pascal's step, and a list with its slack) and in exact
    mode four integer rows and two ints (s**k and a gcd). What does not
    grow with n stays under 2 KiB: six numpy headers with their shapes
    (768 bytes), the step function and its closure (376), the iterators
    (232), the TransitionMatrix and its dict (352), other headers (< 300).
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
    n = params.n
    matrix = np.zeros((n + 1, n + 1), object if mode.exact else float)
    for k, row in enumerate(_survivor_rows(params, mode)):
        matrix[k, : k + 1] = row * params.s ** (n - k) if mode.exact else row
    return matrix


def build_transition_matrix(params: GameParams, mode: NumericMode = FLOAT) -> TransitionMatrix:
    """Survival-count transition matrix for one turn, built row by row from _survivor_rows.

    Where _rows_bytes passes MEMORY_BUDGET, it raises ValueError before
    the first row is built.
    """
    n = params.n
    check_memory(_rows_bytes(params, mode), f"the transition matrix rows at n={n}, s={params.s}")
    zero = Fraction(0) if mode.exact else 0.0  # shared by every entry above the diagonal
    rows = []
    for k, row in enumerate(_survivor_rows(params, mode)):
        entries = row.tolist()  # plain floats, or the integer row: the law times s**k
        if mode.exact:
            entries = map(Fraction, entries, repeat(params.s**k))
        rows.append((*entries, *(zero,) * (n - k)))
    return TransitionMatrix(n=n, rows=tuple(rows))


def _check_digit_products(products: int, what: str) -> None:
    """Raise ValueError naming TURN_CAP if `what` takes more 30-bit digit products than it."""
    if products > TURN_CAP:
        raise ValueError(
            f"{what} takes up to {products} digit products, past TURN_CAP = {TURN_CAP}"
        )


def _recursion_products(params: GameParams) -> int:
    """Bound on the digit products of _integer_recursion's Horner sums, from n and bit_length(s).

    Step j < k of row k multiplies the accumulators, within D_k and D_k**2
    with D_k = d_1 ... d_k below s**(k(k+1)/2), by d_j < s**j and d_j**2,
    and r_k[j] < s**k by N_j and Q_j, within D_j and D_j**2. Schoolbook
    multiplication of an a-digit int by a b-digit one takes a b digit
    products, and squaring at most doubles the digits, so with c_m and a_m
    the digits of s**m and s**(m(m+1)/2) (_digits) the step takes at most
    5 a_k c_j + 3 c_k a_j.
    """
    products = digits_below = triangle_digits_below = 0  # sums of c_j and a_j over j < k
    for k in range(1, params.n + 1):
        digits, triangle_digits = _digits(params, k), _digits(params, k * (k + 1) // 2)
        products += 5 * triangle_digits * digits_below + 3 * digits * triangle_digits_below
        digits_below += digits
        triangle_digits_below += triangle_digits
    return products


def _walk_products(params: GameParams, length: int, first: int) -> int:
    """Bound on the digit products of an exact walk of length - 1 turns, from n and bit_length(s).

    Turn t multiplies the (n+1)(n+2)/2 entries of s**n M, each below s**n,
    by state entries below s**(n t). Summed over t < length, the digits
    of those (_digits) are at most those of s**(n length (length-1)/2)
    plus length - 1. _absorption_window then reduces item t, for t from
    first on, to a Fraction over s**(n t): a gcd of two ints of at most
    c_t digits, counted as c_t**2 products (on a 2-vCPU Xeon VM a profile
    at (10, 10) took about 1.1 ns per such product, a walk about 1 ns per
    digit product).
    With c the digits of the last item, these sum to at most c times the
    digits of s**(n (first + ... + last)) plus the count of items.
    """
    n, last = params.n, length - 1
    walk = _digits(params, n * length * last // 2) + last
    items = length - first
    reduced = _digits(params, n * (first + last) * items // 2) + items
    return (n + 1) * (n + 2) // 2 * _digits(params, n) * walk + _digits(params, n * last) * reduced


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
    both sums taken by Horner's rule; nothing is reduced. Before the
    first row, sums past TURN_CAP digit products (_recursion_products)
    raise ValueError.
    """
    rows = islice(_survivor_rows(params, EXACT), 1, None)  # rows past TURN_CAP refuse here
    what = f"the exact recursion at n={params.n}, s={params.s}"
    _check_digit_products(_recursion_products(params), what)
    numerators, squares, complements, complement_squares = [0], [0], [1], [1]  # state 0
    denominator = 1  # D_{k-1}
    for k, row in enumerate(rows, start=1):
        row = row.tolist()
        power = params.s**k
        complement = sum(row[:k])  # d_k = s**k - (s-1)**k >= 1, so never 0
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
    import numpy as np
    rows = islice(_survivor_rows(params, FLOAT), 1, None)  # rows past TURN_CAP refuse here
    first, second = np.zeros((2, params.n + 1))
    with np.errstate(over="ignore", invalid="ignore"):  # report._pack refuses an inf or nan
        for k, row in enumerate(rows, start=1):
            # 1 - P[k][k] sums nonnegative entries, so nothing cancels. It is exactly
            # 1 - q**k >= p, so its largest entry is at least p/k: never 0 for a normal p
            complement = row[:k].sum()
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


#: Turns per block of a long float chain walk: a block costs one product with
#: M**BLOCK_TURNS and one with the BLOCK_TURNS columns M**i e_0. A power of
#: two, so M**BLOCK_TURNS is squarings only.
BLOCK_TURNS = 64


def _absorption_steps(
    params: GameParams, mode: NumericMode, length: int, first: int = 0
) -> Iterator:
    """P(T <= t) for t = 0, 1, ..., length - 1, a block of turns per matrix product.

    The state is a numpy row vector over dice counts, started at e_n with
    all n dice on the table, so P(T <= t) = e_n M**t e_0. A float walk of
    at least 2(n+1) + B turns, B = BLOCK_TURNS, pays for squaring M up to
    M**B, which costs about as much as n single steps: it builds
    columns[i] = M**i e_0, i < B, by B - 1 matrix-vector products, and
    each block yields the B values columns @ state from the state's turn
    on and moves the state on by state @ M**B. Any other walk takes blocks
    of one turn: it reads state[0] and steps the state by M. Exact mode
    steps an integer state by the integer matrix s**n M, so after t steps
    the state is s**(n*t) times the law, and item t is the integer
    s**(n*t) P(T <= t); _absorption_window makes Fractions of the items
    it returns, those from turn first on. Before M is built, a walk past
    TURN_CAP turns, matrices past MEMORY_BUDGET (_matrix_bytes) and an
    exact walk and reductions past TURN_CAP digit products (_walk_products)
    raise ValueError, in that order.
    """
    import numpy as np
    n, s = params.n, params.s
    if length - 1 > TURN_CAP:
        raise ValueError(f"the chain walk needs {length - 1} turns, past TURN_CAP = {TURN_CAP}")
    check_memory(_matrix_bytes(params, mode), f"the transition matrices at n={n}, s={s}")
    if mode.exact:
        what = f"the exact chain walk of {length - 1} turns at n={n}, s={s}"
        _check_digit_products(_walk_products(params, length, first), what)
    rows = _stacked_rows(params, mode)
    state = np.zeros(n + 1, dtype=rows.dtype)
    state[-1] = 1
    block, jump = 1, rows
    if not mode.exact and length >= 2 * (n + 1) + BLOCK_TURNS:
        block, jump = BLOCK_TURNS, np.linalg.matrix_power(rows, BLOCK_TURNS)
        columns = np.zeros((block, n + 1))
        columns[0, 0] = 1.0
        for i in range(1, block):
            columns[i] = rows @ columns[i - 1]
    for t in range(0, length, block):
        if t:
            state = state @ jump
        if block > 1:
            yield from (columns @ state)[: length - t].tolist()
        else:
            yield state.item(0)


def _absorption_window(params: GameParams, first: int, last: int, mode: NumericMode) -> list:
    """[P(T <= t) for t in first..last]; exact mode reduces a Fraction for these t only."""
    window = list(islice(_absorption_steps(params, mode, last + 1, first), first, None))
    if mode.exact:
        unit = params.s**params.n
        window = [Fraction(value, unit**t) for t, value in enumerate(window, start=first)]
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
    t(5n - 1) + n + 3. Twice the bound at t covers a pmf point.
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
    """Survival-term source for moments._survival_sums: P(T > t) = 1 - P(T <= t), t < stop.

    Each call reads the next block of float chain steps. A term errs by at
    most the step's absorption_step_bound b_t, plus u for the subtraction
    and u for the weight 2t+1: relative bound 2u, absolute bound b_t. The
    products u b_t are second order and fall inside the step bound's
    spare factors.
    """
    import numpy as np
    steps = islice(_absorption_steps(params, FLOAT, stop), 1, None)

    def terms_of(t: np.ndarray):
        absorbed = np.fromiter(steps, np.float64, count=t.size)
        return 1.0 - absorbed, 2 * _U, absorption_step_bound(params, t)

    return terms_of
