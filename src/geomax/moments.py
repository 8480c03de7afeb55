"""Distribution and moments of the turn count via the throw-by-throw view.

Two evaluation kernels live here, each written once for both the mean
and the second moment:

* _alternating_sum, the closed alternating sums over the subset
  expansion of the maximum, exact in rational mode; in float mode each
  term is one rounded ratio of exact integers, the sum an fsum, and the
  error bound follows from the sum's condition number;
* _series_sum, the positive-term series for the mean (weight 1) and the
  second moment (weight 2t+1), float only, with truncation controlled by
  geometric tail bounds.

Deciding what to do when a closed sum's bound is too wide is report.py's
job; the public moment functions live there as views of moment_report.
This module also holds pmf, cdf and quantile.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

import numpy as np

from .kernels import (
    _U,
    binomial,
    tail_bound_max_geom,
    tail_bound_weighted_max_geom,
)
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
    the end. Float mode takes the positive form u_y**n (1 - (1 + x)**-n),
    from u_y = 1 - q**y = u_{y-1} + p q**(y-1) and x = p q**(y-1) / u_{y-1},
    with q**t = exp(t log1p(-1/s)): nothing cancels and nothing overflows.
    """
    y = operator.index(y)
    if y < 1:
        raise ValueError("pmf support starts at y = 1")
    n, s = params.n, params.s
    if mode.exact:
        big_a, big_b, big_s = s * (s - 1) ** (y - 1), (s - 1) ** y, s**y
        total, a_k, b_k = 0, 1, 1
        for k in range(1, n + 1):
            a_k *= big_a
            b_k *= big_b
            term = binomial(n, k) * (a_k - b_k)
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
    result is (nan, inf).
    """
    n, s = params.n, params.s
    divide = Fraction if mode.exact else operator.truediv
    a = b = 1
    pieces = []
    try:
        for k in range(1, n + 1):
            a *= s
            b *= s - 1
            num, den = term(a, b)
            piece = divide(binomial(n, k) * num, den)
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


def _series_sum(params: GameParams, eps: float, weighted: bool) -> tuple[float, float]:
    """Positive series sum_t w_t (1 - (1 - q**t)**n) and its error bound.

    The weight w_t is 1 for the mean and 2t+1 for the second moment. The
    sum stops before the first t >= 1 whose geometric tail bound is <= eps
    and runs over numpy blocks of SERIES_BLOCK terms, each summed by
    math.fsum, the block sums fsum'd again.

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
    * So each term's absolute error is at most (5 t |lam| + 8) u term_t,
      with no factor of n, and the two fsum levels add at most 2u |total|.

    The bound is u sum_t (5 t |lam| + 8) w_t term_t + 2u |total| + tail.
    """
    n, s = params.n, params.s
    if s == 1:
        return 1.0, 0.0
    q = params.q
    tail_bound = tail_bound_weighted_max_geom if weighted else tail_bound_max_geom
    stop = _first_at_most(lambda t: tail_bound(n, q, t), eps)
    lam = math.log1p(-1.0 / s)
    block_sums = [1.0]  # t = 0: the 0**0 corner, 1 - (1-1)**n = 1, weight 1
    evaluation = 0.0  # sum_t (5 t |lam| + 8) w_t term_t
    for start in range(1, stop, SERIES_BLOCK):
        t = np.arange(start, min(start + SERIES_BLOCK, stop), dtype=np.float64)
        terms = -np.expm1(n * np.log1p(-np.exp(t * lam)))  # 1 - (1 - q**t)**n
        if weighted:
            terms *= 2 * t + 1
        block_sums.append(math.fsum(memoryview(terms)))  # yields Python floats, no list
        evaluation += float(np.sum((5 * abs(lam) * t + 8) * terms))
    total = math.fsum(block_sums)
    return total, _U * evaluation + 2 * _U * abs(total) + tail_bound(n, q, stop)


def quantile(params: GameParams, prob, mode: NumericMode = FLOAT) -> int:
    """Smallest y with cdf(y) >= prob, for 0 < prob < 1.

    A float estimate from inverting the cdf seeds the search; the final
    answer is settled by direct cdf comparisons in the requested mode, so
    exact mode gives exact threshold decisions.
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
    while cdf(params, y, mode) < prob:
        y += 1
    while y > 1 and cdf(params, y - 1, mode) >= prob:
        y -= 1
    return y
