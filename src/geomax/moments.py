"""Distribution and moments of the turn count via the throw-by-throw view.

Two evaluation kernels live here, each written once for both the mean
and the second moment:

* _alternating_sum, the closed alternating sums over the subset
  expansion of the maximum, exact in rational mode; in float mode each
  term is one rounded ratio of exact integers, the sum an fsum, and the
  error bound follows from the sum's condition number;
* _survival_sums, the positive survival sums for the mean (weight 1)
  and the second moment (weight 2t+1), float only, truncated by
  geometric tail bounds. It reads the terms P(Y > t) from a source: the
  closed form here (_closed_form_terms, the "series" route) or the
  chain's absorption probabilities (chain._survival_terms, the
  "matrix-power" route).

Deciding what to do when a closed sum's bound is too wide is report.py's
job; the public moment functions live there as views of moment_report.
This module also holds pmf, cdf and quantile.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .kernels import _U, tail_bound_max_geom, tail_bound_weighted_max_geom
from .params import FLOAT, GameParams, NumericMode


def cdf(params: GameParams, y: int, mode: NumericMode = FLOAT):
    """P(turn count <= y). Zero below 1, else (1 - q**y)**n.

    Float mode takes exp(n log1p(-q**y)) with q**y = exp(y log1p(-1/s)):
    never a power of the rounded q, and no n-th power of a rounded base.
    """
    y = operator.index(y)
    if y < 1:
        return Fraction(0) if mode.exact else 0.0
    if mode.exact:
        return (1 - params.q_exact**y) ** params.n
    if params.s == 1:
        return 1.0
    return math.exp(params.n * math.log1p(-math.exp(y * math.log1p(-1.0 / params.s))))


def pmf(params: GameParams, y: int, mode: NumericMode = FLOAT):
    """P(turn count == y) for y >= 1.

    Exact mode sums the alternating subset sum
    sum_k (-1)**(k+1) C(n,k) (q**((y-1)k) - q**(yk)), which telescopes to
    cdf(y) - cdf(y-1), so the telescoping identity stays an independent
    check. Its terms are (A**k - B**k) / S**k with A = s (s-1)**(y-1),
    B = (s-1)**y and S = s**y, so it runs on integers over the shared
    denominator S**n, by Horner's rule in S, and one Fraction is built at
    the end; C(n, k) is carried as in _alternating_sum. Float mode takes
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
        total, a_k, b_k, c = 0, 1, 1, 1
        for k in range(1, n + 1):
            a_k *= big_a
            b_k *= big_b
            c = c * (n - k + 1) // k
            term = c * (a_k - b_k)
            total = total * big_s + (term if k % 2 == 1 else -term)
        return Fraction(total, big_s**n)
    if y == 1:
        return params.p**n
    if s == 1:
        return 0.0
    lam = math.log1p(-1.0 / s)
    x = params.p * math.exp((y - 1) * lam) / -math.expm1((y - 1) * lam)
    return (-math.expm1(y * lam)) ** n * -math.expm1(-n * math.log1p(x))


#: Per-k terms of the closed sums, as (numerator, denominator) over
#: a = s**k and b = (s-1)**k, before the factor C(n, k): the mean's
#: 1/(1 - q**k) and the second moment's (1 + q**k)/(1 - q**k)**2.
CLOSED_TERMS = (
    lambda a, b: (a, a - b),
    lambda a, b: ((a + b) * a, (a - b) ** 2),
)


def _alternating_sum(params: GameParams, mode: NumericMode, term):
    """(value, bound) of sum_k (-1)**(k+1) C(n,k) num/den, (num, den) = term(s**k, (s-1)**k).

    Each term t_k is a ratio of exact integers: a Fraction in exact mode,
    bound Fraction(0); in float mode p_k, a correctly rounded division, and
    math.fsum rounds sum p_k correctly. With every rounding written as
    x = fl(x)(1 + d), |d| <= u = 2**-53, and F = fsum(|p_k|), the terms err
    by at most u sum |p_k| <= u(1 + u)F and the sum by u|value|. The bound
    u(1 + 4u)(F + |value|) covers that through its own two roundings, as
    (1 + u)**3 <= 1 + 4u. It is u|value| times 1 + the condition number
    sum |t_k| / |sum t_k| (Higham 2002, ch. 4). Past the double range the
    result is (nan, inf). The loop carries C(n, k) = C(n, k-1) (n-k+1) / k,
    where the division is exact, next to the powers a and b.
    """
    n, s = params.n, params.s
    divide = Fraction if mode.exact else operator.truediv
    a = b = c = 1
    pieces = []
    try:
        for k in range(1, n + 1):
            a *= s
            b *= s - 1
            c = c * (n - k + 1) // k
            num, den = term(a, b)
            piece = divide(c * num, den)
            pieces.append(piece if k % 2 == 1 else -piece)
        if mode.exact:
            return sum(pieces, Fraction(0)), Fraction(0)
        value = math.fsum(pieces)
        return value, _U * (1 + 4 * _U) * (math.fsum(map(abs, pieces)) + abs(value))
    except OverflowError:
        return math.nan, math.inf


#: Terms per numpy block of the positive series; no array spans more.
SERIES_BLOCK = 1 << 14


def _first_at_most(bound, eps: float) -> int:
    """Smallest t >= 1 with bound(t) <= eps, for a bound unimodal in t.

    If bound(1) > eps, the bound stays above eps until it crosses eps
    once on its decreasing side, so doubling brackets the crossing and
    bisection finds it.
    """
    hi = 1
    while bound(hi) > eps:
        hi *= 2
    lo = hi // 2  # 0, or a t with bound(t) > eps
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if bound(mid) <= eps:
            hi = mid
        else:
            lo = mid
    return hi


def _closed_form_terms(params: GameParams):
    """Survival-term source for _survival_sums: P(Y > t) = 1 - (1 - q**t)**n.

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
    n, lam = params.n, math.log1p(-1.0 / params.s)

    def terms_of(t: np.ndarray):
        return -np.expm1(n * np.log1p(-np.exp(t * lam))), (5 * abs(lam) * t + 8) * _U, 0.0

    return terms_of


def _survival_sums(params: GameParams, eps: float, source) -> tuple[tuple[float, float], ...]:
    """((mean, bound), (second moment, bound)) from the survival terms P(Y > t).

    E(Y) = sum_{t>=0} P(Y > t) and E(Y**2) = sum_{t>=0} (2t+1) P(Y > t).
    source(params) gives a function that maps each next block of turns t
    (a float64 array, the blocks in order from t = 1) to the terms and two
    error bounds, relative and absolute (arrays or scalars): a term times
    its weight w, as rounded, errs by at most relative * (w term) +
    w absolute. The t = 0 term is 1 for both sums.

    Each sum stops before the first t >= 1 whose geometric tail bound
    (tail_bound_max_geom, or tail_bound_weighted_max_geom for the second
    moment) is <= eps. Both run over the same numpy blocks of SERIES_BLOCK
    terms, each block summed by math.fsum and the block sums fsum'd
    again; the two fsum levels err by at most 2u |total|, u = 2**-53.
    Each bound is the weighted per-term error bounds plus 2u |total| plus
    the tail bound at the stop.
    """
    n, s = params.n, params.s
    if s == 1:  # every die is removed on the first turn
        return (1.0, 0.0), (1.0, 0.0)
    q = params.q
    tails = (tail_bound_max_geom, tail_bound_weighted_max_geom)
    stops = [_first_at_most(lambda t: tail(n, q, t), eps) for tail in tails]
    terms_of = source(params)
    block_sums = ([1.0], [1.0])  # t = 0
    evaluation = [0.0, 0.0]  # the summed per-term error bounds
    for start in range(1, max(stops), SERIES_BLOCK):
        t = np.arange(start, min(start + SERIES_BLOCK, max(stops)), dtype=np.float64)
        terms, relative, absolute = terms_of(t)
        for k, weight in enumerate((1.0, 2 * t + 1)):
            size = max(0, stops[k] - start)
            values = terms * weight
            bounds = relative * values + absolute * weight
            block_sums[k].append(math.fsum(memoryview(values[:size])))  # Python floats, no list
            evaluation[k] += float(np.sum(bounds[:size]))
    sums = []
    for parts, evaluated, tail, stop in zip(block_sums, evaluation, tails, stops):
        total = math.fsum(parts)
        sums.append((total, evaluated + 2 * _U * abs(total) + tail(n, q, stop)))
    return tuple(sums)


def _exact_cdf_reaches(params: GameParams, y: int, prob: Fraction) -> bool:
    """cdf(params, y, EXACT) >= prob, decided on bounds of n k bits while they can.

    u = 1 - q**y = a / b, with a = s**y - (s-1)**y and b = s**y, lies in
    [lo, lo + 1] / 2**k for lo = floor(a 2**k / b), so cdf = u**n lies in
    [lo**n, (lo + 1)**n] / 2**(n k): integers of n k bits. k doubles until
    prob falls outside; once 2**k exceeds b, the exact u**n is no dearer.
    """
    n, s = params.n, params.s
    a, b = s**y - (s - 1) ** y, s**y
    k = 64
    while k <= b.bit_length():
        lo = (a << k) // b
        scaled = prob.numerator << (n * k)  # prob 2**(n k), times prob's denominator
        if lo**n * prob.denominator >= scaled:
            return True
        if (lo + 1) ** n * prob.denominator < scaled:
            return False
        k *= 2
    return Fraction(a, b) ** n >= prob


def quantile(params: GameParams, prob, mode: NumericMode = FLOAT) -> int:
    """Smallest y with cdf(y) >= prob, for 0 < prob < 1.

    A float estimate from inverting the cdf seeds the search; cdf
    comparisons in the requested mode settle the answer. The float cdf is
    within 8u = 4 * 2**-52 of EXACT, so a float comparison decides as
    EXACT does unless the two lie that close, and _exact_cdf_reaches
    decides such a near-tie: the float quantile equals the exact one.
    """
    if not 0 < prob < 1:
        raise ValueError("prob must lie strictly between 0 and 1")
    if params.s == 1:
        return 1
    root = float(prob) ** (1.0 / params.n)  # target value of 1 - q**y
    if root >= 1.0:
        root = 1.0 - 2.0**-52  # seed only; the walk below settles the answer
    estimate = math.log1p(-root) / math.log1p(-1.0 / params.s)
    y = max(1, math.ceil(estimate) - 2)

    def reached(y: int) -> bool:
        value = cdf(params, y, mode)
        if not mode.exact and abs(value - prob) <= 8 * _U:
            return _exact_cdf_reaches(params, y, Fraction(prob))
        return value >= prob

    while not reached(y):
        y += 1
    while y > 1 and reached(y - 1):
        y -= 1
    return y
