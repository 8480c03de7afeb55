"""Command-line interface.

Subcommands:

* compute: moments, pmf/cdf points, or quantiles over ranges of (n, s)
* compare: cross-check the evaluation paths against each other
* figures: the bound-versus-exact curves behind the standard plots
* simulate: seeded Monte Carlo (moments, signature counts, histogram)
* signatures: enumerate or count the attainable removal signatures

Examples::

    geomax compute --n 2..4 --s 10 --quantity mean --format csv
    geomax compute --n 20 --s 20 --quantity variance --method recursive
    geomax compare --n-max 8 --s-max 8 --tolerance 1e-9
    geomax figures --figure ev-bounds --panel fixed-s
    geomax simulate --n 4 --s 6 --trials 100000 --seed 7 --report moments
    geomax signatures --n 4

Exit codes: 0 success, 1 verification failure (compare), 2 usage error,
3 numeric failure (cancellation with fallback disabled). The environment
variable GEOMAX_PRECISION overrides the default 12 significant digits of
rendered output; --precision beats both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from decimal import Decimal
from fractions import Fraction

from . import bounds, chain, moments, simulate
from .kernels import _U
from .params import CancellationError, GameParams, NumericMode
from .report import moment_report

DEFAULT_PRECISION = 12

#: header of every compute row, stable across versions
COMPUTE_FIELDS = ("n", "s", "quantity", "method", "value", "error_bound")

#: abscissae of the standard figure panels: (fixed axis, its value, x values)
FIGURE_GRIDS = {
    ("ev-bounds", "fixed-s"): ("s", 10, (2, 4, 6, 8, 10)),
    ("ev-bounds", "fixed-n"): ("n", 4, (4, 6, 8, 10, 12)),
    ("var-bounds", "fixed-s"): ("s", 10, (2, 4, 6, 8, 10)),
    ("var-bounds", "fixed-n"): ("n", 2, (2, 4, 6, 8, 10)),
}

#: turn indices at which compare spot-checks the matrix-power cdf
CDF_SPOT_TURNS = (1, 2, 5, 10, 25, 50)


class UsageError(Exception):
    pass


def format_value(value, precision: int) -> str:
    """Render a result for CSV/JSON output.

    Rationals print as numerator/denominator (plain integer when the
    denominator is 1) and round-trip exactly; floats print with the
    configured number of significant digits.
    """
    # str(Decimal(i)) prints every digit of i; str(i) refuses integers
    # longer than the interpreter's int-to-str limit (4300 digits)
    if isinstance(value, Fraction):
        if value.denominator == 1:
            return str(Decimal(value.numerator))
        return f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
    if isinstance(value, int):
        return str(Decimal(value))
    return f"{value:.{precision}g}"


def parse_range(text: str) -> tuple[int, int]:
    """Parse "a" or "a..b" into an inclusive integer interval."""
    parts = text.split("..")
    try:
        if len(parts) == 1:
            lo = hi = int(parts[0])
        elif len(parts) == 2:
            lo, hi = int(parts[0]), int(parts[1])
        else:
            raise ValueError
    except ValueError:
        raise UsageError(f"bad range {text!r}; expected N or A..B") from None
    if lo < 1 or hi < lo:
        raise UsageError(f"bad range {text!r}; need 1 <= A <= B")
    return lo, hi


def _resolve_precision(args) -> int:
    """--precision, else GEOMAX_PRECISION, else DEFAULT_PRECISION; either must lie in 1..17."""
    value, source = args.precision, "--precision"
    if value is None:
        raw = os.environ.get("GEOMAX_PRECISION")
        if raw is None:
            return DEFAULT_PRECISION
        try:
            value, source = int(raw), "GEOMAX_PRECISION"
        except ValueError:
            raise UsageError(f"GEOMAX_PRECISION={raw!r} is not an integer") from None
    if not 1 <= value <= 17:
        raise UsageError(f"{source} must lie in 1..17")
    return value


def _emit(rows: list[dict], fields: tuple[str, ...], fmt: str) -> None:
    if fmt == "json":
        print(json.dumps([{f: row[f] for f in fields} for row in rows], indent=2))
    else:
        print(",".join(fields))
        for row in rows:
            print(",".join(str(row[f]) for f in fields))


def _compute_pairs(args) -> list[GameParams]:
    n_lo, n_hi = parse_range(args.n)
    s_lo, s_hi = parse_range(args.s)
    pairs = []
    for n in range(n_lo, n_hi + 1):
        for s in range(s_lo, s_hi + 1):
            if n > s and not args.relaxed:
                raise UsageError(
                    f"pair n={n}, s={s} has n > s; pass --relaxed to evaluate"
                )
            pairs.append(GameParams(n=n, s=s, relaxed=args.relaxed))
    return pairs


def _cmd_compute(args) -> int:
    precision = _resolve_precision(args)
    mode = NumericMode(kind=args.mode)
    quantity = args.quantity
    method = args.method or "auto"
    rows = []
    for params in _compute_pairs(args):
        if quantity in ("mean", "variance", "second-moment"):
            if method == "monte-carlo":
                raise UsageError("use the simulate command for monte-carlo estimates")
            report = moment_report(params, mode, method)
            value = {
                "mean": report.mean,
                "variance": report.variance,
                "second-moment": report.second_moment,
            }[quantity]
            tag, err = report.method, report.error_bound
        elif quantity in ("pmf", "cdf"):
            if args.y is None:
                raise UsageError(f"--quantity {quantity} needs --y")
            if quantity == "pmf" and args.y < 1:
                raise UsageError("pmf needs --y >= 1")
            if method in ("auto", "closed"):
                fn = moments.pmf if quantity == "pmf" else moments.cdf
                value = fn(params, args.y, mode)
                tag = "closed-alternating"
                err = 8 * _U
            elif method == "matrix-power":
                if args.y < 0:
                    raise UsageError("matrix-power cdf needs --y >= 0")
                profile = chain.absorption_cdf_profile(params, args.y, mode)
                value = profile[args.y]
                err = chain.absorption_step_bound(params, args.y)
                if quantity == "pmf":  # --y >= 1 was checked above
                    value -= profile[args.y - 1]
                    err *= 2
                tag = "matrix-power"
            else:
                raise UsageError(f"{quantity} supports methods closed and matrix-power")
            err = Fraction(0) if mode.exact else err
        elif quantity == "quantile":
            if args.prob is None:
                raise UsageError("--quantity quantile needs --prob")
            if method not in ("auto", "closed"):
                raise UsageError("quantile supports only the closed method")
            value = moments.quantile(params, args.prob, mode)
            tag = "closed-alternating"
            err = Fraction(0) if mode.exact else 0.0
        else:  # pragma: no cover - argparse choices guard this
            raise UsageError(f"unknown quantity {quantity!r}")
        rows.append(
            {
                "n": params.n,
                "s": params.s,
                "quantity": quantity,
                "method": tag,
                "value": format_value(value, precision),
                "error_bound": format_value(err, precision),
            }
        )
    _emit(rows, COMPUTE_FIELDS, args.format)
    return 0


def _cmd_compare(args) -> int:
    precision = _resolve_precision(args)
    mode = NumericMode(kind=args.mode)
    if args.n_max < 1 or args.s_max < args.n_max:
        raise UsageError("need 1 <= --n-max <= --s-max")
    if args.s_max > 30:
        raise UsageError("--s-max above 30 is not supported")
    tolerance = args.tolerance
    if not tolerance >= 0:  # also refuses nan
        raise UsageError("--tolerance must be nonnegative")
    rows = []
    worst_overall = -1.0
    failures = 0
    for n in range(1, args.n_max + 1):
        for s in range(n, args.s_max + 1):
            params = GameParams(n=n, s=s)
            gaps = {}
            closed = moment_report(params, mode, "closed")
            others = [moment_report(params, mode, "series")]
            others.append(moment_report(params, mode, "recursive"))
            for other in others:
                gaps[f"mean:{other.method}"] = abs(closed.mean - other.mean)
                gaps[f"second-moment:{other.method}"] = abs(
                    closed.second_moment - other.second_moment
                )
            profile = chain.absorption_cdf_profile(params, max(CDF_SPOT_TURNS), mode)
            for t in CDF_SPOT_TURNS:
                gaps[f"cdf:power:t={t}"] = abs(profile[t] - moments.cdf(params, t, mode))
            check, gap = max(gaps.items(), key=lambda item: item[1])
            ok = gap <= tolerance
            if not ok:
                failures += 1
            if float(gap) > worst_overall:
                worst_overall = float(gap)
            rows.append(
                {
                    "n": n,
                    "s": s,
                    "max_discrepancy": format_value(
                        gap if mode.exact else float(gap), precision
                    ),
                    "worst_check": check,
                    "status": "ok" if ok else "fail",
                }
            )
    _emit(rows, ("n", "s", "max_discrepancy", "worst_check", "status"), args.format)
    if failures:
        print(
            f"compare: {failures} pair(s) beyond tolerance {tolerance}",
            file=sys.stderr,
        )
        return 1
    return 0


def figure_rows(figure: str, panel: str) -> list[tuple[int, int, float, float, float]]:
    """Rows (n, s, exact, elementary bound, improved bound) for one panel."""
    try:
        fixed_axis, fixed_value, xs = FIGURE_GRIDS[(figure, panel)]
    except KeyError:
        raise UsageError(f"no panel {panel!r} for figure {figure!r}") from None
    out = []
    for x in xs:
        n, s = (x, fixed_value) if fixed_axis == "s" else (fixed_value, x)
        params = GameParams(n=n, s=s)
        report = moment_report(params)
        if figure == "ev-bounds":
            exact = float(report.mean)
            elementary = float(bounds.ev_bounds_elementary(params).upper)
            improved = float(bounds.ev_bound_pairing(params).upper)
        else:
            exact = float(report.variance)
            elementary = float(bounds.var_bounds_elementary(params).upper)
            improved = float(bounds.var_bound_sum(params).upper)
        out.append((n, s, exact, elementary, improved))
    return out


def _cmd_figures(args) -> int:
    precision = _resolve_precision(args)
    rows = [
        {
            "n": n,
            "s": s,
            "exact": format_value(exact, precision),
            "elementary_bound": format_value(elementary, precision),
            "improved_bound": format_value(improved, precision),
        }
        for n, s, exact, elementary, improved in figure_rows(args.figure, args.panel)
    ]
    _emit(rows, ("n", "s", "exact", "elementary_bound", "improved_bound"), args.format)
    return 0


def _signature_label(sig: tuple[int, ...], n: int) -> str:
    if n <= 9:
        return "".join(str(v) for v in sig)
    return "-".join(str(v) for v in sig)


def _cmd_simulate(args) -> int:
    precision = _resolve_precision(args)
    if args.trials < 1:
        raise UsageError("--trials must be positive")
    if args.seed < 0:
        raise UsageError("--seed must be nonnegative")
    params = GameParams(n=args.n_value, s=args.s_value)
    base = {"n": params.n, "s": params.s, "trials": args.trials, "seed": args.seed}
    if args.report == "moments":
        est = simulate.monte_carlo_moments(params, args.trials, args.seed)
        rows = [
            {
                **base,
                "mean": format_value(est.mean, precision),
                "variance": format_value(est.variance, precision),
                "std_error_mean": format_value(est.std_error_mean, precision),
            }
        ]
        fields = (*base, "mean", "variance", "std_error_mean")
    elif args.report == "histogram":
        hist = simulate.turn_count_histogram(params, args.trials, args.seed)
        rows = [
            {**base, "turn_count": y, "count": int(hist[y])}
            for y in range(1, hist.size)
        ]
        fields = (*base, "turn_count", "count")
    else:
        freq = simulate.signature_frequencies(params, args.trials, args.seed)
        ordered = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
        rows = [
            {**base, "signature": _signature_label(sig, params.n), "count": count}
            for sig, count in ordered
        ]
        fields = (*base, "signature", "count")
    _emit(rows, fields, args.format)
    return 0


def _cmd_signatures(args) -> int:
    if args.n_value < 1:
        raise UsageError("--n must be at least 1")
    if args.count_only:
        count = format_value(2 ** (args.n_value - 1), DEFAULT_PRECISION)
        _emit([{"count": count}], ("count",), args.format)
        return 0
    sigs = simulate.enumerate_signatures(args.n_value)
    rows = [{"signature": _signature_label(sig, args.n_value)} for sig in sigs]
    _emit(rows, ("signature",), args.format)
    return 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree, built on the first main() call and shared by later ones.

    The cache holds one parser of fixed size: it takes no arguments, so it
    never grows, and parsing leaves the parser as it was, so no result
    depends on the order of the calls. The tree holds only data; main()
    picks the handler, and everything a call may change (GEOMAX_PRECISION,
    the terminal width that --help wraps to, sys.stdout and sys.stderr) is
    read when that call runs.
    """
    parser = argparse.ArgumentParser(
        prog="geomax",
        description="Turn-count distribution of the dice elimination game",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p) -> None:
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--precision", type=int, default=None)

    compute = sub.add_parser("compute", help="moments, pmf/cdf points, quantiles")
    compute.add_argument("--n", required=True, help="dice count or range A..B")
    compute.add_argument("--s", required=True, help="face count or range A..B")
    compute.add_argument(
        "--quantity",
        required=True,
        choices=("mean", "variance", "second-moment", "pmf", "cdf", "quantile"),
    )
    compute.add_argument(
        "--method",
        choices=("closed", "series", "recursive", "matrix-power", "monte-carlo"),
        default=None,
        help="force one path; default is closed with automatic series fallback",
    )
    compute.add_argument("--mode", choices=("float", "exact"), default="float")
    compute.add_argument("--relaxed", action="store_true", help="allow n > s")
    compute.add_argument("--y", type=int, default=None, help="point for pmf/cdf")
    compute.add_argument("--prob", type=float, default=None, help="level for quantile")
    add_common(compute)

    compare = sub.add_parser("compare", help="cross-check evaluation paths")
    compare.add_argument("--n-max", type=int, required=True)
    compare.add_argument("--s-max", type=int, required=True)
    compare.add_argument("--tolerance", type=float, default=1e-9)
    compare.add_argument("--mode", choices=("float", "exact"), default="float")
    add_common(compare)

    figures = sub.add_parser("figures", help="bound-versus-exact curve data")
    figures.add_argument("--figure", choices=("ev-bounds", "var-bounds"), required=True)
    figures.add_argument("--panel", choices=("fixed-s", "fixed-n"), required=True)
    add_common(figures)

    sim = sub.add_parser("simulate", help="seeded Monte Carlo")
    sim.add_argument("--n", dest="n_value", type=int, required=True)
    sim.add_argument("--s", dest="s_value", type=int, required=True)
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--report", choices=("moments", "signatures", "histogram"), default="moments"
    )
    add_common(sim)

    sigs = sub.add_parser("signatures", help="enumerate removal signatures")
    sigs.add_argument("--n", dest="n_value", type=int, required=True)
    sigs.add_argument("--count-only", action="store_true")
    add_common(sigs)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # looked up per call, so a handler replaced after the parser was built runs
    handler = {
        "compute": _cmd_compute,
        "compare": _cmd_compare,
        "figures": _cmd_figures,
        "simulate": _cmd_simulate,
        "signatures": _cmd_signatures,
    }[args.command]
    try:
        return handler(args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CancellationError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
