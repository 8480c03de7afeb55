"""Moment reports from any analytic route, the one fallback policy, and ROUTES.

The closed alternating sums cancel heavily once n gets large. In float
mode each closed sum (mean and second moment) carries an error bound
derived from its condition number; when either bound exceeds
CANCELLATION_TOLERANCE times its sum, both moments go to the positive
series (method "auto") or CancellationError is raised (method "closed").
Where n alone makes the mean's bound fail, that is decided before summing.
The public single-moment functions below are views of moment_report, so
they follow the same policy and always agree with the report's fields.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial

from . import chain, moments
from .kernels import _U
from .params import FLOAT, CancellationError, GameParams, MomentReport, NumericMode

#: Analytic methods moment_report accepts. "auto" is the closed route
#: with automatic series fallback; "closed" insists on the alternating
#: sums and raises CancellationError when they cannot deliver.
ANALYTIC_METHODS = ("auto", "closed", "series", "recursive", "matrix-power")

#: Relative error bound above which float-mode closed sums refuse to
#: stand on their own.
CANCELLATION_TOLERANCE = 1e-9


def _mean_surely_refused(params: GameParams) -> bool:
    """Whether the float closed mean's bound must fail, known before summing.

    Each mean term is at least C(n, k), so F = fsum(|p_k|) >= (1 - u)**2 (2**n - 1),
    and the sum's bound is at least u F. The computed mean lies within 3uF of
    the true one, which is at most n s (the maximum of n turn counts is at most
    their sum). So u (2**n - 1) > 4 TOL n s, with TOL = CANCELLATION_TOLERANCE,
    gives TOL |value| < u F / 3 + 3 TOL u F < u F: the summed test refuses too.
    It is decided on integers, as 2**n overflows a double at n >= 1024; past
    the right side's bit length it holds without building 2**n.
    """
    n, s = params.n, params.s
    u_num, u_den = _U.as_integer_ratio()
    tol_num, tol_den = CANCELLATION_TOLERANCE.as_integer_ratio()
    right = 4 * tol_num * n * s * u_den
    return n > right.bit_length() or (2**n - 1) * u_num * tol_den > right


def _closed_report(params: GameParams, mode: NumericMode, fallback: bool) -> MomentReport:
    if mode.exact or not _mean_surely_refused(params):
        (mean, mean_err), (m2, m2_err) = sums = [
            moments._alternating_sum(params, mode, term) for term in moments.CLOSED_TERMS
        ]
        # <= is False for an overflowed sum, (nan, inf), so it is refused too
        if all(err <= CANCELLATION_TOLERANCE * abs(value) for value, err in sums):
            return _pack(mean, m2, mean_err, m2_err, "closed-alternating")
    if not fallback:
        raise CancellationError(
            f"closed alternating sums at n={params.n}, s={params.s} lost "
            "too much precision and fallback is disabled"
        )
    return _survival_report(params, mode, "series")


#: Where each survival-sum route reads its terms P(Y > t): the closed
#: form, or the chain's absorption probabilities.
SURVIVAL_SOURCES = {"series": moments._closed_form_terms, "matrix-power": chain._survival_terms}


def _survival_report(params: GameParams, mode: NumericMode, method: str) -> MomentReport:
    """The survival sums of method's source; exact mode has no finite evaluation of them."""
    if mode.exact:
        if method == "matrix-power":
            raise ValueError("matrix-power moments are float-only")
        return _closed_report(params, mode, fallback=False)
    (mean, mean_err), (m2, m2_err) = moments._survival_sums(
        params, mode.truncation_epsilon, SURVIVAL_SOURCES[method]
    )
    return _pack(mean, m2, mean_err, m2_err, method)


def _recursive_report(params: GameParams, mode: NumericMode) -> MomentReport:
    mean, m2 = chain._recursive_moments(params, mode)
    # heuristic, not derived: each of the recursion's n levels adds positive sums
    scale = Fraction(0) if mode.exact else 16 * params.n * _U
    return _pack(mean, m2, scale * abs(mean), scale * abs(m2), "recursive")


def _pack(mean, m2, mean_err, m2_err, tag: str) -> MomentReport:
    """Report with the variance and its bound; zero bounds stay Fraction(0) in exact mode."""
    variance = m2 - mean * mean
    var_err = m2_err + 2 * abs(mean) * mean_err + mean_err * mean_err
    return MomentReport(
        mean=mean,
        second_moment=m2,
        variance=variance,
        method=tag,
        error_bound=max(mean_err, m2_err, var_err),
    )


def moment_report(
    params: GameParams, mode: NumericMode = FLOAT, method: str = "auto"
) -> MomentReport:
    """Mean, second moment and variance by the requested analytic path.

    The report's method tag names the path that actually ran, which for
    "auto" under heavy cancellation is the series fallback. Exact-mode
    series requests route to the closed form; exact-mode matrix-power
    moments are rejected (that path sums a truncated series).
    """
    if method == "auto":
        return _closed_report(params, mode, fallback=True)
    if method == "closed":
        return _closed_report(params, mode, fallback=False)
    if method in SURVIVAL_SOURCES:
        return _survival_report(params, mode, method)
    if method == "recursive":
        return _recursive_report(params, mode)
    raise ValueError(f"unknown method {method!r}; pick from {ANALYTIC_METHODS}")


def expected_value_closed(params: GameParams, mode: NumericMode = FLOAT, *, fallback: bool = True):
    """Mean turn count by the closed sums: method "auto", or "closed" when fallback=False."""
    return moment_report(params, mode, "auto" if fallback else "closed").mean


def second_moment_closed(params: GameParams, mode: NumericMode = FLOAT, *, fallback: bool = True):
    """Second moment of the turn count, by the route expected_value_closed takes."""
    return moment_report(params, mode, "auto" if fallback else "closed").second_moment


def variance_closed(params: GameParams, mode: NumericMode = FLOAT, *, fallback: bool = True):
    """Variance of the turn count, by the route expected_value_closed takes."""
    return moment_report(params, mode, "auto" if fallback else "closed").variance


def expected_value_series(params: GameParams, mode: NumericMode = FLOAT):
    """Mean turn count by the positive-term series (exact mode: the closed form)."""
    return moment_report(params, mode, "series").mean


def second_moment_series(params: GameParams, mode: NumericMode = FLOAT):
    """Second moment by the weighted positive-term series (exact mode: the closed form)."""
    return moment_report(params, mode, "series").second_moment


#: The moment quantities, as ROUTES and the CLI name them.
MOMENTS = ("mean", "variance", "second-moment")


def _float_bound(mode: NumericMode, bound):
    return Fraction(0) if mode.exact else bound


def _moment(quantity: str, method: str, params, mode, point):
    report = moment_report(params, mode, method)
    return getattr(report, quantity.replace("-", "_")), report.error_bound, report.method


def _closed(quantity: str, params, mode, point):
    bound = 0.0 if quantity == "quantile" else moments.CLOSED_POINT_BOUND
    value = getattr(moments, quantity)(params, point, mode)
    return value, _float_bound(mode, bound), "closed-alternating"


def _chain(quantity: str, params, mode, y):
    first = y - 1 if quantity == "pmf" else y  # a pmf is the difference of two cdf points
    points = chain._absorption_window(params, first, y, mode)
    value, bound = points[-1], chain.absorption_step_bound(params, y)
    if quantity == "pmf":
        value, bound = value - points[0], 2 * bound
    return value, _float_bound(mode, bound), "matrix-power"


#: Each (quantity, method) pair's evaluator (params, mode, point) ->
#: (value, error_bound, route tag), point being y for pmf (y >= 1) and cdf
#: and the level for quantile. The evaluators set each float bound; a
#: quantile's is 0, as it equals the exact one, and exact bounds are 0. They
#: look up what they call when called, so a patched or traced function runs.
ROUTES = {
    **{(q, m): partial(_moment, q, m) for q in MOMENTS for m in ANALYTIC_METHODS},
    **{(q, m): partial(_closed, q) for q in ("pmf", "cdf", "quantile") for m in ("auto", "closed")},
    **{(q, "matrix-power"): partial(_chain, q) for q in ("pmf", "cdf")},
}
