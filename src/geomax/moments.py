"""Distribution and moments of the turn count via the throw-by-throw view.

Three evaluation kernels live here, each written once for both the mean
and the second moment:

* _closed_sums, the closed alternating sums over the subset expansion
  of the maximum, in floats: each term is one rounded ratio of exact
  integers, each sum an fsum, and each error bound follows from the
  sum's condition number;
* _exact_closed_moments, the same sums in exact mode: integers merged
  over the lcm of the terms' denominators, one Fraction built per
  returned value, within TURN_CAP digit products. Both read the integer
  terms of _closed_terms, which carries the powers and C(n, k) from one
  term to the next;
* _survival_sums, the positive survival sums for the mean (weight 1)
  and the second moment (weight 2t+1), float only. It reads the terms
  P(Y > t) from a source and ends them by a tail: the closed form here
  up to the first t with n q**t <= SERIES_SPLIT, then the closed
  alternating tail past it (_closed_form_terms and _closed_tail, the
  "series" route), or the chain walk's live mass up to a geometric tail
  bound (chain._survival_terms and _geometric_tail, the "matrix-power"
  route), each term with a relative bound. Each numpy block of terms
  takes a few numpy calls, none per term, and is summed exactly in a few
  vectorized ExtractVector rounds (_exact_sum), rounded once as fsum would.

Deciding what to do when a closed sum's bound is too wide is report.py's
job; the public moment functions live there as views of moment_report.
This module also holds pmf and cdf, whose exact forms are integer powers
of s and s-1 (the pmf the difference of two cdfs over their common
denominator), and quantile, which decides each step in either mode on the
integer brackets of _bracket_power. Every float evaluation of the law,
here and in the simulator, reads _log1mexp (with the one error analysis)
through _log_cdf or _inverse_law. Only the survival sums and _log1mexp's
array path import numpy, so the closed sums, points and quantile do not.
"""

from __future__ import annotations

import decimal
import math
import operator
import sys
from decimal import Decimal
from fractions import Fraction

from . import params as params_module
from .chain import _digits, _lcm_bits
from .kernels import _U, _exact_moments, _float_p, _lowest_terms, _moments_products
from .kernels import tail_bound_max_geom, tail_bound_weighted_max_geom
from .params import EXACT, FLOAT, GameParams, NumericMode, check_limit


def _log_q(params: GameParams) -> float:
    """ln q = log1p(-p) for the float p = 1/s of kernels._float_p; -inf at s = 1, where q = 0."""
    p = _float_p(params)
    return math.log1p(-p) if p < 1 else -math.inf


def _log_q_times(params: GameParams, y: int) -> float:
    """y lam = log q**y as a float for any int y >= 0, y rounded by at most u relative before the product.

    Past the doubles, y's top 53 bits, rounded to nearest, times lam,
    scaled by math.ldexp, and -inf where that overflows.
    """
    lam = _log_q(params)
    try:
        return y * lam
    except OverflowError:  # y rounds past the largest double
        shift = y.bit_length() - 54
        try:
            return math.ldexp(((y >> shift) + 1 >> 1) * lam, shift + 1)
        except OverflowError:
            return -math.inf


def _log1mexp(x, out=None):
    """log(1 - e**x) for x <= 0 (Maechler's log1mexp): a float, or a float64 array into out (x, or new if None).

    log(-expm1(x)) above -ln 2 and log1p(-exp(x)) below it, so nothing
    cancels. An array whose entries above -ln 2 lead, as where x falls,
    takes each formula over its slice; any other takes that of the side
    holding most entries over all of them, then the other's by index, where
    an exp that rounds to 1 warns of a divide, as x = 0 does on either
    path: the caller's to silence. Only the array path imports numpy.
    The float law is z = n _log1mexp(fl(x)) = ln P, P = (1 - q**y)**n,
    x = y lam (_log_cdf). Its one error analysis, to first order, with
    u = 2**-53, libm within 2u, r = e**x / (1 - e**x), g = log(1 - e**x):
    fl(x) = x (1 + theta), |theta| <= 5u (fl(1/s)'s u times log1p's 1.24
    at most, 1/2 being exact, log1p's 2u, the product's u; u more past
    y = 2**53), moves z by n r |x| theta. expm1's 2u moves log's result by
    2u, exp's moves log1p's by 2u r: 2u min(1, r) either side. log or
    log1p, the product with n and n's rounding past 2**53 add (3u or 4u)|z|:

    * P = exp(z): as r |x| <= |g| (|x| + 1/2) (the excess peaks at 0.34
      near x = -0.32) and min(1, r) <= |g| / ln 2, z errs by at most
      |z| ((|x| + 1/2) theta + 2.9u + 4u), and exp adds 2u P;
    * S = 1 - P = -expm1(z): as P n r = n e**x (1 - e**x)**(n-1) <= S and
      P |z| <= S, S errs by at most S (|x| theta + 8u), expm1's 2u
      included, u less for n <= 2**53: no factor of n.
    """
    if isinstance(x, float):
        return math.log(-math.expm1(x)) if x > -math.log(2) else math.log1p(-math.exp(x))
    import numpy as np
    def side(v, first, then, out=None):  # then(-first(v)), in place
        return then(np.negative(out := first(v, out), out), out)

    near, far = (np.expm1, np.log), (np.exp, np.log1p)
    count = np.count_nonzero(mask := x > -math.log(2))  # entries on the near side
    if count in (0, x.size):
        return side(x, *(near if count else far), out=out)
    out = np.empty_like(x) if out is None else out
    if mask[:count].all():  # they lead, as where x falls: one slice a side
        side(x[:count], *near, out=out[:count])
        side(x[count:], *far, out=out[count:])
        return out
    whole, fix = (near, far) if 2 * count >= x.size else (far, near)
    rest = np.flatnonzero(mask if whole is far else np.logical_not(mask, out=mask))  # the entries to fix
    fixed = side(x[rest], *fix)  # read before out, which may be x, is written
    side(x, *whole, out=out)[rest] = fixed
    return out


def _log_cdf(params: GameParams, y):
    """ln P(Y <= y) = n _log1mexp(y lam), y an int >= 1 (y lam by _log_q_times) or a float64 array."""
    x = _log_q_times(params, y) if isinstance(y, int) else y * _log_q(params)
    z = _log1mexp(x, out=x)  # in place on an array x of its own
    z *= params.n
    return z


def _inverse_law(params: GameParams, log_level):
    """The y with ln P(Y <= y) = log_level, _log1mexp(log_level * (1/n)) / lam; an array is overwritten."""
    log_level *= 1 / params.n
    y = _log1mexp(log_level, out=log_level)
    y /= _log_q(params)
    return y


def cdf(params: GameParams, y: int, mode: NumericMode = FLOAT):
    """P(turn count <= y). Zero below 1, else (1 - q**y)**n.

    Float mode takes exp(_log_cdf(params, y)), never a power of the
    rounded q or of a rounded base. By _log1mexp's analysis, |theta| <= 6u
    (past the doubles P = 1.0, within u), it errs by at most
    P (|ln P| (6 y |lam| + 10) + 2)u, which _cdf_bound prints with spare
    constants. Exact mode raises ValueError before its first power where
    its powers take more than TURN_CAP digit products (_cdf_products).
    """
    y = operator.index(y)
    if y < 1:
        return Fraction(0) if mode.exact else 0.0
    if mode.exact:
        what = f"the exact cdf at y={y} for n={params.n}, s={params.s}"
        check_limit(_cdf_products(params, y), "digit products", what)
        return (1 - params.q_exact**y) ** params.n
    return math.exp(_log_cdf(params, y))


def _cdf_bound(params: GameParams, y: int, value: float) -> float:
    """Bound on |cdf(params, y) - exact| for its float value: value (|ln value| (6 y |lam| + 11) + 3)u.

    From cdf's analysis, a spare u per constant covering the second order,
    the bound's own roundings and ln of the rounded value: |ln P| <= 745
    for a nonzero double P, and |x| <= 747 wherever |ln P| >= u (n <
    2**1024), so |z| times z's relative error is below 4e-10. 2**-1073
    covers a value below the normal doubles. y < 1 (0), s = 1 (1) are exact.
    """
    if y < 1 or params.s == 1:
        return 0.0
    drift = -math.log(value) * (6 * -_log_q_times(params, y) + 11) if 0 < value < 1 else 0.0
    return value * (drift + 3) * _U + 2.0**-1073


def pmf(params: GameParams, y: int, mode: NumericMode = FLOAT):
    """P(turn count == y) for y >= 1.

    Exact mode takes cdf(y) - cdf(y-1) over the cdf's denominator s**(n y):
    (U**n - V**n) / s**(n y), with U = s**y - (s-1)**y and
    V = s (s**(y-1) - (s-1)**(y-1)), both built from s**(y-1) and
    (s-1)**(y-1), and one Fraction built at the end without a gcd, as the
    pair is in lowest terms (_pmf_products). Past TURN_CAP digit products
    (_pmf_products) it raises ValueError before the first power.
    Float mode takes the positive form u_y**n (1 - (1 + x)**-n), from
    u_y = 1 - q**y = u_{y-1} + p q**(y-1) and x = p q**(y-1) / u_{y-1}, as
    cdf(params, y) * -expm1(-n log1p(x)): nothing cancels and nothing
    overflows (p**n at y = 1). _pmf_bound bounds its error.
    """
    return _pmf_point(params, y, mode)[0]


def _pmf_point(params: GameParams, y: int, mode: NumericMode) -> tuple:
    """(pmf(params, y, mode), its error bound): exact, a Fraction built without a gcd and 0.0, else _pmf_bound's."""
    y = operator.index(y)
    if y < 1:
        raise ValueError("pmf support starts at y = 1")
    n, s = params.n, params.s
    if mode.exact:
        what = f"the exact pmf at y={y} for n={n}, s={s}"
        check_limit(_pmf_products(params, y), "digit products", what)
        top, low = s ** (y - 1), (s - 1) ** (y - 1)
        return _lowest_terms((s * top - (s - 1) * low) ** n - (s * (top - low)) ** n, (s * top) ** n), 0.0
    log_p = _log_cdf(params, y)  # ln cdf(params, y)
    if y == 1:
        value = _float_p(params) ** n
    else:
        x = params.p * math.exp(before := _log_q_times(params, y - 1)) / -math.expm1(before)
        value = math.exp(log_p) * -math.expm1(-n * math.log1p(x))
    return value, _pmf_bound(params, y, value, log_p)


def _pmf_bound(params: GameParams, y: int, value: float, log_p: float | None = None) -> float:
    """Bound on |pmf(params, y) - exact| for its float value P F, P = cdf(params, y), ln P = log_p if given.

    F = -expm1(-n log1p(x)) = 1 - (1 + x)**-n with x = p e**b / -expm1(b)
    and b = fl((y-1) lam), |theta| <= 6u as in cdf. To first order, with
    u = 2**-53 and libm within 2u, x errs by (|b| + 1) theta + 7u: its
    condition number in b is |b| / (1 - e**b) <= |b| + 1, and fl(1/s),
    exp, expm1, the product and the quotient add 7u. F's condition number
    in x, n x (1 + x)**(-n-1) / F, is at most 1, as is each later step's,
    and log1p, the product with n and expm1 add 6u: F errs by
    (6|b| + 19)u, P by cdf's bound, the product by u more, and a spare u
    per constant covers the second order (|b| <= y |lam|). At y = 1 the
    pmf is fl(1/s)**n, within (n + 2)u < 11u |ln P|. Below the normal
    doubles a rounding errs by 2**-1074 absolute: there -expm1(b) > 1/2,
    so x errs by 2.5 2**-1074 more and F by n times that; log1p and the
    product with n add n 2**-1074, and expm1, P and the product 2.5
    2**-1074: below (n + 1) 2**-1071. s = 1 is exact.
    """
    if params.s == 1:
        return 0.0
    log_p = _log_cdf(params, y) if log_p is None else log_p
    y_lam, floor = -_log_q_times(params, y), (params.n + 1) * 2.0**-1071
    return value * (-log_p * (6 * y_lam + 11) + 6 * y_lam + 23) * _U + floor if value else floor


#: digits of the largest int CPython squares by schoolbook; past it, by Karatsuba
KARATSUBA_SQUARE_DIGITS = 140


def _square_products(digits: int, counted: dict) -> int:
    """Bound on the digit products CPython takes to square an int of at most `digits` 30-bit digits.

    Up to KARATSUBA_SQUARE_DIGITS it forms each cross product once, in
    c (c + 1) / 2 products for c digits. Past that, Karatsuba's k_mul
    splits the int into halves of at most h = ceil(c/2) digits and squares
    both halves and their sum, of at most h + 1 digits. Its other work is
    copies, additions and subtractions of at most c + 2 digits each: the
    split, the result's two copies and fill, the two subtractions, the
    halves' sum and the last addition, counted as 8c products. Just past
    the cutoff that is less than a schoolbook square at it, which a
    shorter int still takes, so the bound is the larger of the two.
    counted holds the sizes already counted, so each is counted once. Past
    2**40 digits, far past any int that fits in memory, the schoolbook
    count stands in: it bounds Karatsuba's, and keeps the recursion shallow
    for the astronomic exponents an exact point may be asked for.
    """
    if digits <= KARATSUBA_SQUARE_DIGITS or digits > 1 << 40:
        return digits * (digits + 1) // 2
    if digits not in counted:
        half = -(-digits // 2)
        squares = 2 * _square_products(half, counted) + _square_products(half + 1, counted)
        schoolbook = _square_products(KARATSUBA_SQUARE_DIGITS, counted)
        counted[digits] = max(squares + 8 * digits, schoolbook)
    return counted[digits]


def _power_products(params: GameParams, power: int, exponent: int, every_bit: bool = False) -> int:
    """Bound on the digit products of x**exponent for an int x below s**power, from bit_length(s).

    Python raises to a power left to right: per bit of the exponent past
    the first, it squares x**e, and where the bit is set it multiplies the
    square by x. The square of x**e, of at most chain._digits of e power
    digits, takes _square_products; the product by x is counted as
    schoolbook. With every_bit the product is counted at every bit, as if
    each were set, so the count never falls as the exponent grows and a
    limit on it is a threshold in the exponent, not a band.
    """
    base, products, reached, counted = _digits(params, power), 0, 1, {}
    for bit in bin(exponent)[3:]:
        products += _square_products(_digits(params, reached * power), counted)
        if bit == "1" or every_bit:
            products += _digits(params, 2 * reached * power) * base
        reached = 2 * reached + int(bit)
    return products


def _cdf_products(params: GameParams, y: int) -> int:
    """Bound on the digit products of the exact cdf at y >= 1, from n, y and bit_length(s).

    Counted as chain._recursion_products counts: (s-1)**y and s**y, then
    1 - their ratio (three steps of at most the digits c_y of s**y), and its
    numerator and denominator, both below s**y, to the n-th power. The
    y-th powers count every bit of y as set, so the count grows with y.
    """
    powers = _power_products(params, 1, y, every_bit=True) + _power_products(params, y, params.n)
    return 2 * powers + 3 * _digits(params, y)


def _pmf_products(params: GameParams, y: int) -> int:
    """Bound on the digit products of the exact pmf at y >= 1, from n, y and bit_length(s).

    Counted as _cdf_products counts, every bit of y - 1 as set:
    s**(y-1) and (s-1)**(y-1), then U and V (three products by s or s-1
    and two differences, of at most the digits c_y of s**y), U, V and s**y
    to the n-th power, and U**n - V**n (c_(ny), the digits of s**(n y)).
    The Fraction takes no gcd: U**n - V**n is coprime to s**(n y), as a
    prime that divides s divides V, but U = -(-1)**y mod it.
    """
    c, last = _digits(params, y), _digits(params, params.n * y)
    powers = 2 * _power_products(params, 1, y - 1, every_bit=True)
    powers += 3 * _power_products(params, y, params.n)
    return powers + c * (3 * _digits(params, 1) + 2) + last


def _closed_terms(params: GameParams):
    """Integer terms (Q_k, P_k, R_k), k = 1..n: P_k / Q_k of the mean, R_k / Q_k**2 of E(Y**2).

    With a = s**k, b = (s-1)**k and c = (-1)**(k+1) C(n,k): Q_k = a - b, P_k = c a
    and R_k = P_k (a + b), so c / (1 - q**k) and c (1 + q**k) / (1 - q**k)**2.
    Each of a, b and C(n, k) comes from the one before:
    C(n, k) = C(n, k-1) (n-k+1) / k, where the division is exact.
    """
    n, s = params.n, params.s
    a = b = c = 1
    for k in range(1, n + 1):
        a, b, c = a * s, b * (s - 1), c * (n - k + 1) // k
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


def _closed_products(params: GameParams) -> int:
    """Bound on the digit products of _exact_closed_moments, from n and s in O(log n).

    Counted as chain._recursion_products counts; besides, a product whose
    result has at most w digits takes at most (w + 1)**2 / 4, as its
    factors' digits sum to at most w + 1. With c the digits of 2 s**n,
    which bound s**k, (s-1)**k, their sum and Q_k, and e those of n bits,
    which bound C(n, k) < 2**n, a term takes the steps of s**k and (s-1)**k
    (2 c c_1), of C(n, k) (2 e times the digits of n), P_k (e c) and R_k
    ((e + c) c). A node h levels up the merge tree holds the terms of at
    most 2**h consecutive k <= n. Its Q is the lcm of their Q_k, below
    their product, so below s**(2**h n), and dividing L, whose bits
    chain._lcm_bits bounds: at most x_h digits. As Q_k >= s**(k-1),
    |P_k| / Q_k <= C(n, k) s and |R_k| / Q_k**2 <= 2 C(n, k) s**2, so
    |P| < Q s 2**n and |R| < 2 Q**2 s**2 2**n, of y and z digits when Q has
    x. A merge into a node of x digits takes a gcd (x**2), two divisions
    by it and Q1 f1 (3 (x + 1)**2 / 4), two P f, two f**2 and two R f**2
    (((y + 1)**2 + (2x + 1)**2 + (z + 1)**2) / 2), in all
    (25 x**2 + beta x + gamma) / 4. So the m merges of a level take at most
    (m gamma + X (25 x_h + beta)) / 4, where X, the digits of their nodes'
    Q, is at most m x_h and at most the digits of all Q_k. The root's
    (Q, P, R), of at most x, y and z digits, goes to kernels._exact_moments,
    priced at its worst h = gcd(a, Q) by kernels._moments_products.
    """
    n, one = params.n, params.s.bit_length()
    c, e, lcm_bits = _digits(params, n) + 1, -(-n // 30), _lcm_bits(params)
    p_more, r_more = -(-(one + n) // 30), -(-(2 * one + n + 1) // 30)  # y - x, z - 2x
    beta, gamma = 26 + 4 * p_more + 8 * r_more, 5 + 2 * (p_more + 1) ** 2 + 2 * (r_more + 1) ** 2
    total = one * n * (n + 1) // 60 + n  # digits of all Q_k
    terms = c * (2 * _digits(params, 1) + 2 * e + c) + 2 * e * -(-n.bit_length() // 30)
    quarters, count, h = 4 * n * terms, n, 0
    x = -(-min(n * one, lcm_bits) // 30)  # a lone term's Q_k
    while count > 1:
        merges, h = count // 2, h + 1
        count -= merges
        x = -(-min((n << h) * one, lcm_bits) // 30)
        quarters += merges * gamma + min(merges * x, total) * (25 * x + beta)
    return -(-quarters // 4) + _moments_products(x, x + p_more, 2 * x + r_more)


def _exact_closed_moments(params: GameParams) -> tuple[Fraction, Fraction, Fraction]:
    """(mean, second moment, variance) of the closed sums, as Fractions.

    Adjacent (Q, P, R) of _closed_terms are merged level by level over
    their lcm: with g = gcd(Q1, Q2), f1 = Q2 / g and f2 = Q1 / g,
    Q = Q1 f1, P = P1 f1 + P2 f2 and R = R1 f1**2 + R2 f2**2. The balanced
    tree keeps the products even, and kernels._exact_moments reduces the
    root (Q, P, R), as the recursion's state n. Sums past TURN_CAP digit
    products (_closed_products) raise ValueError before the first term.
    """
    what = f"the exact closed sums at n={params.n}, s={params.s}"
    check_limit(_closed_products(params), "digit products", what)
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
    return _exact_moments(*level[0])


#: Terms per numpy block of the positive series; no array spans more, and
#: _exact_sum's rounds rely on it: at most 2**14 terms keep each round's
#: partial sums exact and shrink the residual by about 2**37 or more.
SERIES_BLOCK = 1 << 14

#: _exact_sum hands blocks shorter than this to math.fsum, whose 17 ns a term
#: cost less there than the extraction's 15 us plus 3 ns a term (2-vCPU Xeon VM).
EXTRACT_FROM = 1 << 10


def _exact_sum(values: np.ndarray) -> float:
    """math.fsum(values), bit for bit (or its error), for at most SERIES_BLOCK doubles.

    A block of N >= EXTRACT_FROM values is summed by error-free extraction
    (ExtractVector of Rump, Ogita and Oishi, SIAM J. Sci. Comput. 31(1),
    2008) in vectorized rounds. With 2**M >= N + 2 and every |x| left at
    most 2**-M sigma, sigma a power of two (first 2**(e + M), 2**e > top,
    the largest |x|), a round takes high = (x + sigma) - sigma:

    * x + sigma lies within a factor 2 of sigma, so high is exact, a
      multiple of eps sigma (eps = 2**-53) of at most 2**-M sigma;
    * the residual x - high is the rounding error of x + sigma: exact and
      at most eps sigma, so the next round's sigma is 2**(M - 53) times
      this one (2**-38 or less for N <= 2**14), with no pass for top;
    * every partial sum of the highs, in any order, is a multiple of
      eps sigma below N 2**-M sigma < sigma, so np.sum adds them exactly.
      Once eps sigma is below 2**-1074 every x is such a multiple and
      nothing is left.

    The rounds, four passes and a test for zero each, stop when the
    residual is all zero, so the exact partial sums add up to the exact
    sum, and their fsum is that sum correctly rounded, as math.fsum's is.
    Past the domain, finite values with top below 2**(1023 - M) (sigma a
    double), which survival terms lie far inside, math.fsum sums the block.
    """
    import numpy as np
    size, bits = values.size, (values.size + 1).bit_length()  # bits is M
    if size < EXTRACT_FROM or not (top := float(max(-values.min(), values.max()))) < 2.0 ** (1023 - bits):
        return math.fsum(memoryview(values))  # short, or past the domain (nan too)
    sigma = math.ldexp(1.0, math.frexp(top)[1] + bits)
    parts, high, rest = [], np.empty_like(values), values.copy()
    while rest.any():
        np.subtract(np.add(rest, sigma, out=high), sigma, out=high)
        parts.append(float(np.sum(high)))
        rest -= high
        sigma = math.ldexp(sigma, bits - 53)
    return math.fsum(parts)


def _first_true(test, lo: int, hi: int) -> int:
    """Smallest t in (lo, hi] with test(t), for a test false at lo, true at hi and monotone between.

    Bisection; test is never called at lo or hi, so hi = lo + 1 returns hi at once.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if test(mid) else (mid, hi)
    return hi


def _first_at_most(bound, eps: float, walk: str) -> int:
    """Smallest t >= 1 with bound(t) <= eps, for a bound unimodal in t.

    If bound(1) > eps, the bound stays above eps until it crosses eps
    once on its decreasing side, so doubling brackets the crossing and
    _first_true finds it. A stop past TURN_CAP is refused (check_limit)
    naming the walk; if the doubling reaches TURN_CAP with the bound still
    above eps, at once, naming the turn after the last one probed.
    """
    hi = 1
    while (above := bound(hi) > eps) and hi < params_module.TURN_CAP:
        hi *= 2
    stop = hi + 1 if above else _first_true(lambda t: bound(t) <= eps, hi // 2, hi)
    check_limit(stop, "turns", walk)
    return stop


def _closed_form_terms(params: GameParams, stop: int | None = None):
    """Survival-term source for _survival_sums: P(Y > t) = 1 - (1 - q**t)**n = -expm1(_log_cdf(params, t)).

    The series sums these terms for t < T, the head, and _closed_tail
    sums the rest; each term stands alone, so the stop T is not read. By
    _log1mexp's analysis of the survival, |theta| <= 5u (t < TURN_CAP <
    2**53), and the weight's u, each weighted term errs by at most
    (5 t |lam| + 8)u times it, u more where n > 2**53 rounds.
    """
    import numpy as np
    lam, rounds = _log_q(params), 8 + (params.n > 1 << 53)
    def terms_of(t: np.ndarray):
        terms = _log_cdf(params, t)
        np.negative(np.expm1(terms, out=terms), out=terms)
        relative = np.multiply(t, 5 * abs(lam))
        return terms, np.multiply(np.add(relative, rounds, out=relative), _U, out=relative)

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
    kept is at most the first term left out. Both sums keep their terms up
    to the first j whose second-moment term, the mean's times
    (2T+1) + 2x / d >= 3, is <= eps, or to j = n: a cut on the mean's own
    terms would never come later, and its first term left out still bounds
    the mean's remainder.

    Error bound, to first order, with u = 2**-53 and the theta of
    _log1mexp's analysis: fl(j lam) errs by at most 5u relative, so q**T =
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
    kept, errors, truncation = ([], []), ([], []), (0.0, 0.0)
    c = 1.0
    for j in range(1, n + 1):
        c *= (n - j + 1) / j * q_split
        d = -math.expm1(j * lam)
        mean = c / d
        terms = (mean, mean * ((2 * split + 1) + 2 * math.exp(j * lam) / d))
        relative = (j * step + 8 * _U, j * step + (5 * j * abs(lam) + 20) * _U)
        if terms[1] <= eps:
            truncation = [term * (1 + r) for term, r in zip(terms, relative)]
            break
        for k in (0, 1):
            kept[k].append(terms[k] if j % 2 else -terms[k])
            errors[k].append(terms[k] * relative[k])
    tails = []
    for terms, term_errors, left_out in zip(kept, errors, truncation):
        value = math.fsum(terms)
        tails.append((split, value, math.fsum(term_errors) + _U * abs(value) + left_out))
    return tails


def _survival_sums(params: GameParams, eps: float, source, tail) -> tuple[tuple[float, float], ...]:
    """((mean, bound), (second moment, bound)) from the survival terms P(Y > t).

    E(Y) = sum_{t>=0} P(Y > t) and E(Y**2) = sum_{t>=0} (2t+1) P(Y > t).
    source(params, stop) gives a function that maps each next block of
    turns t (a float64 array, the blocks in order from t = 1 to stop - 1,
    stop the larger of the tail's stops, which sizes the chain's walk;
    t and the terms are then overwritten) to the terms, never below 0, and a
    relative bound: a term times its weight, as rounded, errs by at most
    relative times itself. The t = 0 term is 1 for both sums.

    tail(params, eps) gives, per sum, where its terms stop and the value
    and error bound of what it leaves out: _geometric_tail (a value of 0
    and the geometric tail bound) or the series' _closed_tail. It runs
    before any term is evaluated. Both sums run over the same numpy blocks
    of SERIES_BLOCK terms, each block's sum rounded once by _exact_sum (its
    math.fsum, bit for bit), and the block sums and the tail's value
    fsum'd again; the two rounding levels err by at most 2u |total|,
    u = 2**-53. Each bound adds the per-term bounds, 2u |total| and the tail's.
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
        terms, relative = terms_of(t)
        weight = np.add(np.multiply(t, 2, out=t), 1, out=t)  # 2t + 1 over t, which terms_of has read
        bounds = np.empty_like(t)
        for k in (0, 1):
            values = np.multiply(terms, weight, out=terms) if k else terms  # over the mean's terms, summed
            size = max(0, stops[k] - start)
            block_sums[k].append(_exact_sum(values[:size]))
            evaluation[k] += float(np.sum(np.multiply(relative, values, out=bounds)[:size]))
    sums = []
    for parts, evaluated, (_, value, bound) in zip(block_sums, evaluation, tails):
        total = math.fsum([*parts, value])
        sums.append((total, evaluated + 2 * _U * abs(total) + bound))
    return tuple(sums)


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


def _bracket_products(params: GameParams, y: int, prob: Fraction, k: int) -> int:
    """Bound on the digit products of one k-bit bracket of _cdf_reaches.

    With c the digits of k + 1 bits, which hold every factor:
    _bracket_power takes, per bit of its exponent (y, then n), two squares
    and at most two products, each product counted as two squares
    (_square_products), which bound it by schoolbook or Karatsuba alike;
    q's bracket divides two ints of k + bit_length(s) bits by s, and
    prob's test multiplies both ends of the bracket by prob's denominator,
    of d digits (schoolbook).
    """
    c, one, d = -(-(k + 1) // 30), _digits(params, 1), -(-prob.denominator.bit_length() // 30)
    steps = y.bit_length() + params.n.bit_length()
    return 6 * steps * _square_products(c, {}) + 2 * (c + one) * one + 2 * c * d


def _cdf_reaches(params: GameParams, y: int, prob: Fraction) -> bool:
    """cdf(params, y, EXACT) >= prob, decided on k-bit brackets while they can.

    _bracket_power raises a bracket of q = (s-1)/s to the y-th power, and
    1 - q**y to the n-th: a bracket of cdf = (1 - q**y)**n. k doubles from 64
    until prob falls outside. The Fraction cdf decides instead once k would
    pass its n y bit_length(s) bits, as at an exact tie, or once the next
    bracket would take more digit products (_bracket_products) than that
    cdf (_cdf_products) or than TURN_CAP, read from params when it runs:
    the cap past which the cdf's own check_limit refuses it. So a decision
    next to a cdf value takes about 2.5 TURN_CAP digit products at most,
    as each bracket takes about three times the one before. The first
    bracket, where nearly every decision ends, is not counted. The cdf's
    count also holds its size: unless n = y = 1, where the cdf is 1/s, the
    x**m of its powers square an int of a third of its bits or more, and
    past 2**26 bits that square alone (_square_products) counts over
    9 TURN_CAP.
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
        if k == 64:
            limit = min(params_module.TURN_CAP, _cdf_products(params, y))
        k *= 2
        if _bracket_products(params, y, prob, k) > limit:
            break
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
    seed, doubling its step, then bisects. log(1 - root) is _log1mexp's, as
    in _inverse_law, so a root below 2**-53 does not seed at 1, and it sizes
    the seed in logs first: a seed of DECIMAL_SEED_FROM turns or more, even
    one past the doubles, comes from _decimal_seed at its digits plus 20,
    plus the leading zeros of root and of 1 - root, where 1 - root and its
    log cancel, so that it lands within a turn or two. _cdf_reaches decides
    each step exactly, so mode does not change the answer. Where a decision
    needs an exact cdf of more than TURN_CAP digit products it raises
    ValueError, but a gallop probe past the answer does not: the search goes
    on below the last turn whose exact cdf is admitted, found by _first_true
    as _cdf_products grows with y, so a level is refused only where its
    answer lies past that turn, its own exact cdf refused, and the refusal
    names the turn just past it.
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
    while True:
        try:
            if _cdf_reaches(params, hi, prob):
                break
        except ValueError:  # hi's exact cdf is refused, and so is every one past it
            pass
        else:
            lo, hi = hi, 3 * hi - 2 * lo
            continue
        refused = _first_true(lambda y: _cdf_products(params, y) > params_module.TURN_CAP, 0, hi)
        hi = refused - 1
        if not _cdf_reaches(params, hi, prob):  # the answer's own exact cdf is refused
            cdf(params, hi + 1, EXACT)  # raises ValueError, naming the first turn refused
        lo = min(lo, hi - 1)
        break
    while _cdf_reaches(params, lo, prob):
        lo, hi = max(0, 3 * lo - 2 * hi), lo
    return _first_true(lambda y: _cdf_reaches(params, y, prob), lo, hi)
