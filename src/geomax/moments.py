"""Distribution and moments of the turn count via the throw-by-throw view.

Three evaluation kernels live here, each written once for both the mean
and the second moment:

* _closed_sums, the closed alternating sums over the subset expansion
  of the maximum, in floats: each term is one rounded ratio of exact
  integers, each sum an fsum, and each error bound follows from the
  sum's condition number;
* _exact_closed_moments, the same sums in exact mode: integers merged
  over the lcm of the terms' denominators, one Fraction built per
  returned value. Both read the integer terms of _closed_terms, which,
  like the exact pmf, takes powers and C(n, k) from _binomial_powers;
* _survival_sums, the positive survival sums for the mean (weight 1)
  and the second moment (weight 2t+1), float only. It reads the terms
  P(Y > t) from a source and ends them by a tail: the closed form here
  up to the first t with n q**t <= SERIES_SPLIT, then the closed
  alternating tail past it (_closed_form_terms and _closed_tail, the
  "series" route), or the chain's absorption probabilities up to a
  geometric tail bound (chain._survival_terms and _geometric_tail, the
  "matrix-power" route). Each numpy block of terms is summed exactly by
  error-free extraction in a few vectorized rounds (_exact_sum) and
  rounded once, bit for bit as math.fsum would round it.

Deciding what to do when a closed sum's bound is too wide is report.py's
job; the public moment functions live there as views of moment_report.
This module also holds pmf, cdf and quantile, which decides each step in
either mode on the integer brackets of _bracket_power. Only the survival
sums run numpy, and each function of theirs imports it itself, so the
closed sums, the points and the quantile run without loading it.
"""

from __future__ import annotations

import decimal
import math
import operator
import sys
from decimal import Decimal
from fractions import Fraction

from .kernels import _U, _float_p, tail_bound_max_geom, tail_bound_weighted_max_geom
from .params import EXACT, FLOAT, TURN_CAP, GameParams, NumericMode


#: Printed error bound of a float closed pmf or cdf point against EXACT, 8u =
#: 4 * 2**-52; quantile does not read it. Checked on n <= 40, s <= 2000, not
#: derived: at n = 10**6 the cdf can miss it.
CLOSED_POINT_BOUND = 8 * _U


def _log_q(params: GameParams) -> float:
    """ln q = log1p(-p) for the float p = 1/s of kernels._float_p; -inf at s = 1, where q = 0."""
    p = _float_p(params)
    return math.log1p(-p) if p < 1 else -math.inf


def _log1mexp(x: float) -> float:
    """log(1 - exp(x)) for x < 0, switching at x = -ln 2 so nothing cancels (Maechler's log1mexp)."""
    return math.log(-math.expm1(x)) if x > -math.log(2) else math.log1p(-math.exp(x))


def cdf(params: GameParams, y: int, mode: NumericMode = FLOAT):
    """P(turn count <= y). Zero below 1, else (1 - q**y)**n.

    Float mode takes exp(n log(1 - q**y)) with q**y = exp(y lam),
    lam = log1p(-1/s): never a power of the rounded q, and no n-th power
    of a rounded base. log(1 - q**y) is _log1mexp(y lam), so nothing
    cancels: by _closed_form_terms' analysis it errs by at most
    (7 + 2|log(1 - q**y)|)u, and the cdf P by (7n + 3|ln P| + 2)u relative.
    """
    y = operator.index(y)
    if y < 1:
        return Fraction(0) if mode.exact else 0.0
    if mode.exact:
        return (1 - params.q_exact**y) ** params.n
    return math.exp(params.n * _log1mexp(y * _log_q(params)))  # log q**y = y lam


def pmf(params: GameParams, y: int, mode: NumericMode = FLOAT):
    """P(turn count == y) for y >= 1.

    Exact mode sums the alternating subset sum
    sum_k (-1)**(k+1) C(n,k) (q**((y-1)k) - q**(yk)), which telescopes to
    cdf(y) - cdf(y-1), so the telescoping identity stays an independent
    check. Its terms are (A**k - B**k) / S**k with A = s (s-1)**(y-1),
    B = (s-1)**y and S = s**y, so it runs on integers over the shared
    denominator S**n, by Horner's rule in S, and one Fraction is built at
    the end; _binomial_powers carries the powers and C(n, k). Float mode takes
    the positive form u_y**n (1 - (1 + x)**-n), from
    u_y = 1 - q**y = u_{y-1} + p q**(y-1) and x = p q**(y-1) / u_{y-1},
    with q**t = exp(t log1p(-1/s)): nothing cancels and nothing overflows.
    """
    y = operator.index(y)
    if y < 1:
        raise ValueError("pmf support starts at y = 1")
    n, s = params.n, params.s
    if mode.exact:
        big_a, big_b, big_s = s * (s - 1) ** (y - 1), (s - 1) ** y, s**y
        total = 0
        for k, (a_k, b_k, c) in enumerate(_binomial_powers(n, big_a, big_b), 1):
            term = c * (a_k - b_k)
            total = total * big_s + (term if k % 2 == 1 else -term)
        return Fraction(total, big_s**n)
    if y == 1:
        return _float_p(params) ** n
    lam = _log_q(params)
    x = params.p * math.exp((y - 1) * lam) / -math.expm1((y - 1) * lam)
    return (-math.expm1(y * lam)) ** n * -math.expm1(-n * math.log1p(x))


def _binomial_powers(n: int, a: int, b: int):
    """(a**k, b**k, C(n, k)) for k = 1..n, each from the one before.

    C(n, k) = C(n, k-1) (n-k+1) / k, where the division is exact.
    """
    a_k = b_k = c = 1
    for k in range(1, n + 1):
        a_k *= a
        b_k *= b
        c = c * (n - k + 1) // k
        yield a_k, b_k, c


def _closed_terms(params: GameParams):
    """Integer terms (Q_k, P_k, R_k), k = 1..n: P_k / Q_k of the mean, R_k / Q_k**2 of E(Y**2).

    With a = s**k, b = (s-1)**k and c = (-1)**(k+1) C(n,k): Q_k = a - b, P_k = c a
    and R_k = P_k (a + b), so c / (1 - q**k) and c (1 + q**k) / (1 - q**k)**2.
    """
    for k, (a, b, c) in enumerate(_binomial_powers(params.n, params.s, params.s - 1), 1):
        p = c * a if k % 2 == 1 else -c * a
        yield a - b, p, p * (a + b)


def _closed_sums(params: GameParams) -> tuple[tuple[float, float], ...]:
    """((mean, bound), (second moment, bound)) of the closed sums, in floats.

    Each term t_k, P_k / Q_k or R_k / Q_k**2 of _closed_terms, is a ratio
    of exact integers, and p_k, its correctly rounded division; math.fsum
    rounds sum p_k correctly. With every rounding written as
    x = fl(x)(1 + d), |d| <= u = 2**-53, and F = fsum(|p_k|), the terms
    err by at most u sum |p_k| <= u(1 + u)F and the sum by u|value|. The
    bound u(1 + 4u)(F + |value|) covers that through its own two
    roundings, as (1 + u)**3 <= 1 + 4u. It is u|value| times 1 + the
    condition number sum |t_k| / |sum t_k| (Higham 2002, ch. 4). Past the
    double range both moments are (nan, inf).
    """
    try:
        sums = []
        for pieces in zip(*[(p / q, r / (q * q)) for q, p, r in _closed_terms(params)]):
            value = math.fsum(pieces)
            sums.append((value, _U * (1 + 4 * _U) * (math.fsum(map(abs, pieces)) + abs(value))))
        return tuple(sums)
    except OverflowError:
        return ((math.nan, math.inf),) * 2


def _exact_closed_moments(params: GameParams) -> tuple[Fraction, Fraction, Fraction]:
    """(mean, second moment, variance) of the closed sums, as Fractions.

    Adjacent (Q, P, R) of _closed_terms are merged level by level over
    their lcm: with g = gcd(Q1, Q2), f1 = Q2 / g and f2 = Q1 / g,
    Q = Q1 f1, P = P1 f1 + P2 f2 and R = R1 f1**2 + R2 f2**2. The balanced
    tree keeps the products even, and each returned value is reduced
    once: P / Q, R / Q**2 and (R - P**2) / Q**2.
    """
    level = list(_closed_terms(params))
    while len(level) > 1:
        merged = []
        for (q1, p1, r1), (q2, p2, r2) in zip(level[::2], level[1::2]):
            g = math.gcd(q1, q2)
            f1, f2 = q2 // g, q1 // g
            merged.append((q1 * f1, p1 * f1 + p2 * f2, r1 * (f1 * f1) + r2 * (f2 * f2)))
        if len(level) % 2:
            merged.append(level[-1])
        level = merged
    [(q, p, r)] = level
    q2 = q * q
    return Fraction(p, q), Fraction(r, q2), Fraction(r - p * p, q2)


#: Terms per numpy block of the positive series; no array spans more, and
#: _exact_sum's rounds rely on it: at most 2**14 terms keep each round's
#: partial sums exact and shrink the residual by about 2**37 or more.
SERIES_BLOCK = 1 << 14

#: _exact_sum hands blocks shorter than this to math.fsum, whose 20-30 ns a
#: term cost less there than the extraction's fixed cost of about 25 us.
EXTRACT_FROM = 1 << 10


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values), bit for bit (or its error), for at most SERIES_BLOCK doubles.

    A block of N >= EXTRACT_FROM values is summed by error-free extraction
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1), 2008), in
    vectorized rounds. With top the largest |x| left, unit = 2**(E - 52)
    for the least E with 2**E > fl(N top) (never below 2**-1074), and
    high = trunc(x / unit) unit:

    * x / unit is exact unless it is subnormal, and then below 1, so its
      trunc k is exact, |k| < 2**52, and high = k unit is exact too;
    * every partial sum of the highs, in any order, is a multiple of unit
      below N top < 2**52 unit, so np.sum adds them exactly (as integers k,
      scaled by unit after);
    * high has x's sign and |high| <= |x|, so the residual x - high, x's
      bits below unit, is exact and below unit in magnitude: the next top
      is at most about 2**-37 times this one (N <= 2**14). At
      unit = 2**-1074 every x is a multiple of it and nothing is left.

    The rounds stop when the residual is all zero, so the exact partial
    sums add up to the exact sum, and their fsum is that sum correctly
    rounded, as math.fsum's is. The domain is finite values with N top
    finite, and a block of survival terms lies far inside it; past it (an
    inf or nan, or N top past the doubles) math.fsum sums the block.
    Truncation, not floor: for a negative x, as the chain's terms
    1 - P(T <= t) can be, floor gives |high| > |x|, and x - high rounds.
    """
    import numpy as np
    size = values.size
    if size < EXTRACT_FROM:
        return math.fsum(memoryview(values))
    parts, high, rest = [], np.empty_like(values), values.copy()
    while top := float(max(-rest.min(), rest.max())):  # nan is true
        reach = size * top
        if not math.isfinite(reach):  # past the domain, in the first round only
            return math.fsum(memoryview(values))
        unit = math.ldexp(1.0, max(math.frexp(reach)[1] - 52, -1074))
        np.trunc(np.divide(rest, unit, out=high), out=high)  # integers below 2**52
        parts.append(float(np.sum(high)) * unit)
        rest -= np.multiply(high, unit, out=high)
    return math.fsum(parts)


def _first_at_most(bound, eps: float, walk: str) -> int:
    """Smallest t >= 1 with bound(t) <= eps, for a bound unimodal in t.

    If bound(1) > eps, the bound stays above eps until it crosses eps
    once on its decreasing side, so doubling brackets the crossing and
    bisection finds it. A stop past TURN_CAP raises ValueError naming the
    walk, at once if the doubling reaches TURN_CAP with the bound above eps.
    """
    hi = 1
    while (above := bound(hi) > eps) and hi < TURN_CAP:
        hi *= 2
    lo = hi if above else hi // 2  # above: the stop lies past hi; else lo is 0 or above eps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= eps:
            hi = mid
        else:
            lo = mid
    if above or hi > TURN_CAP:
        raise ValueError(f"{walk} needs {hi} turns or more, past TURN_CAP = {TURN_CAP}")
    return hi


def _closed_form_terms(params: GameParams, stop: int | None = None):
    """Survival-term source for _survival_sums: P(Y > t) = 1 - (1 - q**t)**n.

    The series sums these terms for t < T, the head, and _closed_tail
    sums the rest; each term stands alone, so the stop T is not read.

    Each term is -expm1(n * log1p(-q**t)) with q**t = exp(t * lam),
    lam = log1p(-1/s), never a power of the rounded q. Error bound, with
    u = 2**-53 and libm's exp, log1p and expm1 within one ulp (2u):

    * fl(t * lam) = t * lam * (1 + theta) with |theta| <= 5u: the u of
      fl(1/s), which log1p passes on amplified by x / ((1-x) |ln(1-x)|)
      <= 1.24 at x = 1/s <= 1/3 (1/2 is exact), log1p's own 2u and the
      product's u. So q**t carries a relative error of at most
      (5 t |lam| + 2) u, exp's own error included.
    * A relative error e of y = q**t moves the term by about
      n y (1 - y)**(n-1) e <= term * e, since the term is
      sum_{j<n} y (1 - y)**j. A relative error d of
      z = n log1p(-y) = ln P, P = (1 - y)**n, moves it by about
      P |ln P| d <= (1 - P) d = term * d. log1p, the product with n,
      expm1 and the weight add at most 2u + u + 2u + u.
    * So each weighted term errs by at most (5 t |lam| + 8) u times it,
      a relative bound with no factor of n.
    """
    import numpy as np
    n, lam = params.n, _log_q(params)

    def terms_of(t: np.ndarray):
        return -np.expm1(n * np.log1p(-np.exp(t * lam))), (5 * abs(lam) * t + 8) * _U, 0.0

    return terms_of


def _geometric_tail(params: GameParams, eps: float):
    """Truncation of each survival sum: ((stop, 0.0, tail bound), ...), mean first.

    Each sum stops before the first t >= 1 whose geometric tail bound
    (tail_bound_max_geom, or tail_bound_weighted_max_geom for the second
    moment) is <= eps, and leaves out a tail of at most that bound. Where q
    rounds to 1 (s > 2**53) the bound is inf, which _first_at_most refuses.
    """
    n, q = params.n, params.q
    walk = f"matrix-power at s={params.s}"
    tails = []
    for bound in (tail_bound_max_geom, tail_bound_weighted_max_geom):
        stop = _first_at_most(lambda t: bound(n, q, t) if q < 1 else math.inf, eps, walk)
        tails.append((stop, 0.0, bound(n, q, stop)))
    return tails


#: The series sums its terms up to the first t >= 1 with n q**t <= SERIES_SPLIT
#: and the rest in closed form, whose terms then fall by this factor or more.
SERIES_SPLIT = 0.5


def _closed_tail(params: GameParams, eps: float):
    """The series' tails sum_{t>=T} in closed form: ((T, value, bound), ...), mean first.

    T is the first t >= 1 with n q**T <= SERIES_SPLIT. Expanding
    P(Y > t) = sum_j (-1)**(j+1) C(n,j) q**(jt), j = 1..n, and summing
    each geometric series over t >= T, with c_j = C(n,j) q**(jT),
    x = q**j and d = 1 - x:

    * mean tail: sum_j (-1)**(j+1) c_j / d;
    * second-moment tail: sum_j (-1)**(j+1) c_j ((2T+1) d + 2x) / d**2,
      computed as the mean term times (2T+1) + 2x / d.

    c_j / c_{j-1} = (n-j+1) q**T / j <= n q**T <= 1/2, and d grows with j,
    so each |term| is at most half the one before: the alternating sum's
    condition number is at most 3, and its remainder after the last term
    kept is at most the first term left out. Each sum keeps its terms up to
    the first whose computed magnitude is <= eps, or to j = n.

    Error bound, to first order, with u = 2**-53 and the roundings of
    _closed_form_terms: fl(j lam) errs by at most 5u relative, so q**T =
    exp(T lam) by (5T|lam| + 2)u, and c_j, built as c_{j-1} times
    fl(fl((n-j+1)/j) q**T) (Python's int division rounds once), by
    j (5T|lam| + 5)u; a spare u per step, j (5T|lam| + 6)u, covers the
    second-order terms. d = -expm1(j lam) errs by at most 5u + 2u, as
    expm1's relative condition number is at most 1 for a negative
    argument, so the mean term, after the division, by j (5T|lam| + 6)u + 8u.
    x = exp(j lam) errs by (5j|lam| + 2)u, so x / d by (5j|lam| + 10)u, the
    positive factor (2T+1) + 2x / d by (5j|lam| + 11)u, and the
    second-moment term by the mean term's error plus (5j|lam| + 12)u. Each
    sum's bound is these relative bounds times the |terms| kept, plus u
    |value| for its fsum, plus the first term left out times one plus its
    relative bound for the truncation. A term below the smallest normal
    double errs by less than 2**-1000, far below the 2u |total| >= 2u that
    _survival_sums adds.

    The terms before T number about s ln(2n); _first_at_most refuses a T
    past TURN_CAP, which covers every s where the float q rounds to 1.
    """
    n, lam = params.n, _log_q(params)
    walk = f"the series at s={params.s}"
    split = _first_at_most(lambda t: n * math.exp(t * lam), SERIES_SPLIT, walk)
    q_split = math.exp(split * lam)
    step = (5 * split * abs(lam) + 6) * _U  # c_j's relative error per j
    kept, errors, left_out = ([], []), ([], []), [None, None]
    c, j = 1.0, 0
    while j < n and None in left_out:
        j += 1
        c *= (n - j + 1) / j * q_split
        d = -math.expm1(j * lam)
        mean = c / d
        terms = (mean, mean * ((2 * split + 1) + 2 * math.exp(j * lam) / d))
        relative = (j * step + 8 * _U, j * step + (5 * j * abs(lam) + 20) * _U)
        for k in (0, 1):
            if left_out[k] is not None:
                continue
            if terms[k] <= eps:
                left_out[k] = terms[k] * (1 + relative[k])
            else:
                kept[k].append(terms[k] if j % 2 else -terms[k])
                errors[k].append(terms[k] * relative[k])
    tails = []
    for terms, term_errors, truncation in zip(kept, errors, left_out):
        value = math.fsum(terms)
        bound = math.fsum(term_errors) + _U * abs(value) + (truncation or 0.0)
        tails.append((split, value, bound))
    return tails


def _survival_sums(
    params: GameParams, eps: float, source, tail=_geometric_tail
) -> tuple[tuple[float, float], ...]:
    """((mean, bound), (second moment, bound)) from the survival terms P(Y > t).

    E(Y) = sum_{t>=0} P(Y > t) and E(Y**2) = sum_{t>=0} (2t+1) P(Y > t).
    source(params, stop) gives a function that maps each next block of
    turns t (a float64 array, the blocks in order from t = 1 to stop - 1,
    stop the larger of the tail's stops, which the chain's walk reads to
    size its steps) to the terms and two error bounds, relative and
    absolute (arrays or scalars): a term times its weight w, as rounded,
    errs by at most relative * (w term) + w absolute. The t = 0 term is 1
    for both sums.

    tail(params, eps) gives, per sum, where its terms stop and the value
    and error bound of what it leaves out: _geometric_tail (a value of 0
    and the geometric tail bound) or the series' _closed_tail. It runs
    before any term is evaluated. Both sums run over the same numpy blocks
    of SERIES_BLOCK terms, each block's sum rounded once by _exact_sum (its
    math.fsum, bit for bit), and the block sums and the tail's value
    fsum'd again; the two rounding levels err by at most 2u |total|,
    u = 2**-53. Each bound is the weighted per-term error bounds plus
    2u |total| plus the tail's bound.
    """
    import numpy as np
    if params.s == 1:  # every die is removed on the first turn
        return (1.0, 0.0), (1.0, 0.0)
    tails = tail(params, eps)
    stops = [stop for stop, _, _ in tails]
    terms_of = source(params, max(stops))
    block_sums = ([1.0], [1.0])  # t = 0
    evaluation = [0.0, 0.0]  # the summed per-term error bounds
    for start in range(1, max(stops), SERIES_BLOCK):
        t = np.arange(start, min(start + SERIES_BLOCK, max(stops)), dtype=np.float64)
        terms, relative, absolute = terms_of(t)
        for k, weight in enumerate((1.0, 2 * t + 1)):
            size = max(0, stops[k] - start)
            values = terms * weight
            bounds = relative * values + absolute * weight
            block_sums[k].append(_exact_sum(values[:size]))
            evaluation[k] += float(np.sum(bounds[:size]))
    sums = []
    for parts, evaluated, (_, value, bound) in zip(block_sums, evaluation, tails):
        total = math.fsum([*parts, value])
        sums.append((total, evaluated + 2 * _U * abs(total) + bound))
    return tuple(sums)


#: Largest Fraction cdf, in bits (8 MiB), that quantile's exact fallback may build.
NEAR_TIE_BITS = 1 << 26


def _bracket_power(lo: int, hi: int, m: int, k: int) -> tuple[int, int]:
    """A bracket of x**m from one of x: lo <= x 2**k <= hi, for 0 <= x <= 1.

    Powers by squaring; each product is floored on the low side and
    ceiled on the high side back to k bits, so every step stays a bracket.
    """
    low = high = 1 << k
    while m:
        if m & 1:
            low, high = low * lo >> k, -(-high * hi >> k)
        lo, hi, m = lo * lo >> k, -(-hi * hi >> k), m >> 1
    return low, high


def _cdf_reaches(params: GameParams, y: int, prob: Fraction) -> bool:
    """cdf(params, y, EXACT) >= prob, decided on k-bit brackets while they can.

    _bracket_power raises a bracket of q = (s-1)/s to the y-th power, and
    1 - q**y to the n-th: a bracket of cdf = (1 - q**y)**n. k doubles from 64
    until prob falls outside. Past the Fraction cdf's n y bit_length(s) bits,
    as at an exact tie, that cdf decides; it raises ValueError past NEAR_TIE_BITS.
    """
    n, s = params.n, params.s
    bits = n * y * s.bit_length()
    k = 64
    while k <= bits:
        q_lo, q_hi = _bracket_power(((s - 1) << k) // s, -(-((s - 1) << k) // s), y, k)
        lo, hi = _bracket_power((1 << k) - q_hi, (1 << k) - q_lo, n, k)
        a, b = prob.numerator << k, prob.denominator
        if lo * b >= a or hi * b < a:  # prob lies outside [lo, hi] / 2**k
            return lo * b >= a
        k *= 2
    if bits > NEAR_TIE_BITS:
        raise ValueError(
            f"deciding the quantile at y={y} for n={n}, s={s} needs a cdf of "
            f"{bits} bits, past NEAR_TIE_BITS = {NEAR_TIE_BITS}"
        )
    return cdf(params, y, EXACT) >= prob


#: quantile refines a float seed of this many turns or more in decimal: the
#: float inversion errs by about y 2**-50, more than a turn or two.
DECIMAL_SEED_FROM = 1 << 50


def _decimal_seed(params: GameParams, prob: Fraction, digits: int) -> int:
    """ceil(ln(1 - prob**(1/n)) / ln(1 - 1/s)) in decimal, at the given significant digits.

    ln(1 - 1/s) is taken as -sum_k s**-k / k, whose terms fall by 1/s:
    the log of 1 - 1/s rounded to the working digits would lose the
    digits of s.
    """
    with decimal.localcontext() as ctx:
        ctx.prec = digits
        x = 1 / Decimal(params.s)
        lam, power, k = Decimal(0), x, 1
        while power > x.scaleb(-digits):  # power = x**k
            lam -= power / k
            power, k = power * x, k + 1
        level = Decimal(prob.numerator) / prob.denominator
        root = (level.ln() / params.n).exp()  # prob**(1/n)
        y = ((1 - root).ln() / lam).to_integral_value(rounding=decimal.ROUND_CEILING)
    return max(1, int(y))


def quantile(params: GameParams, prob, mode: NumericMode = FLOAT) -> int:
    """Smallest y with cdf(y) >= prob, for 0 < prob < 1, the same in either mode.

    The inverted law ceil(log(1 - root) / log q), root = prob**(1/n) with
    prob clamped into the doubles, seeds a search that steps away from the
    seed, doubling its step, then bisects. log(1 - root) is _log1mexp's,
    so a root below 2**-53 does not seed at 1, and it sizes the seed in
    logs first: a seed of DECIMAL_SEED_FROM turns or more, even one past
    the doubles, comes from _decimal_seed at its digits plus 20, plus the
    leading zeros of root and of 1 - root, where 1 - root and its log
    cancel, so that it lands within a turn or two. _cdf_reaches decides
    each step exactly, so mode does not change the answer; past
    NEAR_TIE_BITS it raises ValueError.
    """
    if not 0 < prob < 1:
        raise ValueError("prob must lie strictly between 0 and 1")
    level = min(max(float(prob), sys.float_info.min), 1 - _U)
    log_root = math.log(level) / params.n  # log prob**(1/n)
    lam = _log_q(params)
    log_gap = _log1mexp(log_root)  # log(1 - root)
    digits = math.log10(-log_gap) - math.log10(-lam)  # log10 of the seed, maybe past the doubles
    prob = Fraction(prob)
    if digits < math.log10(DECIMAL_SEED_FROM):
        y = max(1, math.ceil(log_gap / lam))
    else:
        zeros = -math.floor(math.log10(min(math.exp(log_root), -math.expm1(log_root))))
        y = _decimal_seed(params, prob, math.ceil(digits) + 20 + max(0, zeros))
    lo, hi = y - 1, y  # until cdf(lo) < prob <= cdf(hi); cdf(0) = 0
    while not _cdf_reaches(params, hi, prob):
        lo, hi = hi, 3 * hi - 2 * lo
    while _cdf_reaches(params, lo, prob):
        lo, hi = max(0, 3 * lo - 2 * hi), lo
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if _cdf_reaches(params, mid, prob) else (mid, hi)
    return hi
