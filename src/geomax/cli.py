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

Exit codes: 0 success, 1 verification failure (compare), 2 usage error or
refused input (a ValueError naming the limit it passed, such as TURN_CAP
or MEMORY_BUDGET), 3 numeric failure (an ArithmeticError, such as a
cancellation with fallback disabled, or a simulated game past its turn
cap). Exact values print every digit, as numerator/denominator. The
environment variable GEOMAX_PRECISION overrides the default 12 significant
digits of rendered output; --precision beats both.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction

from . import bounds, chain, moments, simulate
from .params import GameNotFinishedError, GameParams, NumericMode
from .report import MOMENTS, ROUTES, moment_report

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

#: decimal digits of a leaf of _decimal, one str call: below 640, the least
#: int-to-str limit sys.set_int_max_str_digits accepts, so output never
#: depends on the interpreter's limit
_LEAF_DIGITS = 512
_LEAF_POWER = 10**_LEAF_DIGITS


class UsageError(Exception):
    pass


def format_value(value, precision: int) -> str:
    """Render a result for CSV/JSON output.

    Rationals print as numerator/denominator (plain integer when the
    denominator is 1) and round-trip exactly; floats print with the
    configured number of significant digits. _decimal writes every digit
    of an int, whatever the interpreter's int-to-str limit, in about c**2/2
    30-bit digit products for an int of c such digits (about 1.7 ns each on
    a 2-vCPU Xeon VM). An int whose count passes TURN_CAP raises ValueError
    before any digit is written: ints of up to 1,341,630 bits (403,871
    digits) print, the largest in about 1.7 s.
    """
    if isinstance(value, int):
        num, den = value, 1
    elif isinstance(value, Fraction):
        num, den = value.numerator, value.denominator
    else:
        return f"{value:.{precision}g}"
    bits = max(num.bit_length(), den.bit_length())
    digits = -(-bits // 30)
    chain._check_digit_products(digits * digits // 2, f"writing the digits of a {bits}-bit integer")
    powers = [_LEAF_POWER]  # the split powers, squared once and shared by both ints
    while 2 * powers[-1].bit_length() - 1 <= bits:  # its square may still lie below 2**bits
        powers.append(powers[-1] ** 2)
    text = "-" * (num < 0) + _decimal(abs(num), powers)
    return text if den == 1 else f"{text}/{_decimal(den, powers)}"


def _decimal(i: int, powers: list[int], level: int = -1) -> str:
    """The decimal digits of i >= 0, zero-padded to _LEAF_DIGITS 2**level digits if level >= 0.

    powers[k] is 10**(_LEAF_DIGITS 2**k). Unpadded, i splits at the largest
    power not above it; padded, at the power half its width. Below those a
    leaf is one str call of at most _LEAF_DIGITS digits. Dividing an
    a-digit int by a b-digit one takes about (a - b) b 30-bit digit
    products, so by induction an int of c such digits takes about c**2/2:
    its split at b digits costs (c - b) b, and (c - b) b + (c - b)**2/2 +
    b**2/2 = c**2/2. That is quadratic, as str(i) is, but no str call
    passes the interpreter's limit.
    """
    if level < 0:
        if i < powers[0]:
            return str(i)
        level = len(powers) - 1
        while powers[level] > i:
            level -= 1
        high, low = divmod(i, powers[level])
        return _decimal(high, powers) + _decimal(low, powers, level)
    if level == 0:
        return str(i).zfill(_LEAF_DIGITS)
    high, low = divmod(i, powers[level - 1])
    return _decimal(high, powers, level - 1) + _decimal(low, powers, level - 1)


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


def _emit(rows: list[tuple], fields: tuple[str, ...], fmt: str) -> None:
    """Print rows, each a tuple in the order of fields, as CSV or as a JSON list of objects."""
    if fmt == "json":
        print(json.dumps([dict(zip(fields, row)) for row in rows], indent=2))
    else:
        print(",".join(fields))
        for row in rows:
            print(",".join(map(str, row)))


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
    quantity, method = args.quantity, args.method or "auto"
    pairs = _compute_pairs(args)
    point = args.prob if quantity == "quantile" else args.y
    if quantity in ("pmf", "cdf"):
        if point is None:
            raise UsageError(f"--quantity {quantity} needs --y")
        if quantity == "pmf" and point < 1:
            raise UsageError("pmf needs --y >= 1")
        if method == "matrix-power" and point < 0:
            raise UsageError("matrix-power cdf needs --y >= 0")
    elif quantity == "quantile" and point is None:
        raise UsageError("--quantity quantile needs --prob")
    evaluate = ROUTES.get((quantity, method))
    if evaluate is None:
        if quantity in MOMENTS:  # only monte-carlo has no moment route
            raise UsageError("use the simulate command for monte-carlo estimates")
        methods = [m for q, m in ROUTES if q == quantity and m != "auto"]
        if len(methods) == 1:
            raise UsageError(f"{quantity} supports only the {methods[0]} method")
        raise UsageError(f"{quantity} supports methods {' and '.join(methods)}")
    rows = []
    for params in pairs:
        value, err, tag = evaluate(params, mode, point)
        value, err = format_value(value, precision), format_value(err, precision)
        rows.append((params.n, params.s, quantity, tag, value, err))
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
    for n in range(1, args.n_max + 1):
        for s in range(n, args.s_max + 1):
            params = GameParams(n=n, s=s)
            closed = moment_report(params, mode, "closed")
            gaps = {}
            for method in ("series", "recursive"):
                other = moment_report(params, mode, method)
                gaps[f"mean:{other.method}"] = abs(closed.mean - other.mean)
                gaps[f"second-moment:{other.method}"] = abs(closed.second_moment - other.second_moment)
            profile = chain.absorption_cdf_profile(params, max(CDF_SPOT_TURNS), mode)
            for t in CDF_SPOT_TURNS:
                gaps[f"cdf:power:t={t}"] = abs(profile[t] - moments.cdf(params, t, mode))
            check, gap = max(gaps.items(), key=lambda item: item[1])
            shown = format_value(gap if mode.exact else float(gap), precision)
            rows.append((n, s, shown, check, "ok" if gap <= tolerance else "fail"))
    _emit(rows, ("n", "s", "max_discrepancy", "worst_check", "status"), args.format)
    failures = sum(row[-1] == "fail" for row in rows)
    if failures:
        print(f"compare: {failures} pair(s) beyond tolerance {tolerance}", file=sys.stderr)
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
        (n, s, *(format_value(value, precision) for value in values))
        for n, s, *values in figure_rows(args.figure, args.panel)
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
    params = GameParams(n=args.n, s=args.s, relaxed=True)  # the simulator refuses n > s itself
    base = (params.n, params.s, args.trials, args.seed)
    if args.report == "moments":
        est = simulate.monte_carlo_moments(params, args.trials, args.seed)
        values = (est.mean, est.variance, est.std_error_mean)
        rows = [(*base, *(format_value(value, precision) for value in values))]
        fields = ("mean", "variance", "std_error_mean")
    elif args.report == "histogram":
        hist = simulate.turn_count_histogram(params, args.trials, args.seed)
        rows = [(*base, y, int(hist[y])) for y in range(1, hist.size)]
        fields = ("turn_count", "count")
    else:
        freq = simulate.signature_frequencies(params, args.trials, args.seed)
        ordered = sorted(freq.items(), key=lambda item: (-item[1], item[0]))
        rows = [(*base, _signature_label(sig, params.n), count) for sig, count in ordered]
        fields = ("signature", "count")
    _emit(rows, ("n", "s", "trials", "seed", *fields), args.format)
    return 0


def _cmd_signatures(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.count_only:
        count = format_value(1 << (args.n - 1), DEFAULT_PRECISION)
        _emit([(count,)], ("count",), args.format)
        return 0
    sigs = simulate.enumerate_signatures(args.n)
    _emit([(_signature_label(sig, args.n),) for sig in sigs], ("signature",), args.format)
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
    quantities = tuple(dict.fromkeys(q for q, _ in ROUTES))
    compute.add_argument("--quantity", required=True, choices=quantities)
    compute.add_argument(
        "--method",
        choices=(*dict.fromkeys(m for _, m in ROUTES if m != "auto"), "monte-carlo"),
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
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--s", type=int, required=True)
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--report", choices=("moments", "signatures", "histogram"), default="moments"
    )
    add_common(sim)

    sigs = sub.add_parser("signatures", help="enumerate removal signatures")
    sigs.add_argument("--n", type=int, required=True)
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
    except (ArithmeticError, GameNotFinishedError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
