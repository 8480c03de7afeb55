"""Command-line interface.

Subcommands:

* compute: moments, pmf/cdf points, or quantiles over ranges of (n, s)
* compare: cross-check the evaluation paths, each gap within its two values' printed bounds
* figures: the bound-versus-exact curves behind the standard plots
* simulate: seeded Monte Carlo (moments, signature counts, histogram)
* signatures: enumerate or count the attainable removal signatures

Examples::

    geomax compute --n 2..4 --s 10 --quantity mean --format csv
    geomax compute --n 20 --s 20 --quantity variance --method recursive
    geomax compare --n-max 8 --s-max 8
    geomax figures --figure ev-bounds --panel fixed-s
    geomax simulate --n 4 --s 6 --trials 100000 --seed 7 --report moments
    geomax signatures --n 4

Exit codes: 0 success, 1 verification failure (compare), 2 usage error or
refused input (a ValueError naming the limit it passed, such as TURN_CAP
or MEMORY_BUDGET), 3 numeric failure (an ArithmeticError, such as a
cancellation with fallback disabled, or a simulated game past its turn
cap). Each row is written as soon as it is computed. A usage error
prints no rows; a refusal or failure while a row is computed leaves the
rows before it on stdout, a JSON list unclosed, and exits 2 or 3.
Exact values print every digit, as numerator/denominator. The
environment variable GEOMAX_PRECISION overrides the default 12 significant
digits of rendered output; --precision beats both.
"""

from __future__ import annotations

import functools
import os
import sys
from fractions import Fraction
from types import SimpleNamespace
from typing import Iterable, Iterator

from . import bounds, chain, simulate
from .params import GameNotFinishedError, GameParams, NumericMode, check_limit
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
    _check_printable(bits)
    powers = [_LEAF_POWER]  # the split powers, squared once and shared by both ints
    while 2 * powers[-1].bit_length() - 1 <= bits:  # its square may still lie below 2**bits
        powers.append(powers[-1] ** 2)
    text = "-" * (num < 0) + _decimal(abs(num), powers)
    return text if den == 1 else f"{text}/{_decimal(den, powers)}"


def _check_printable(bits: int) -> None:
    """Refuse (check_limit) format_value's digits of a `bits`-bit int past TURN_CAP digit products."""
    digits = -(-bits // 30)
    check_limit(digits * digits // 2, "digit products", f"writing the digits of a {bits}-bit integer")


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


def _emit(rows: Iterable[tuple], fields: tuple[str, ...], fmt: str) -> None:
    """Write rows, each a tuple in the order of fields, as CSV or as json.dumps(list, indent=2) writes them.

    Each row is written when it arrives, the CSV header or the opening "["
    with the first, so a row that raises leaves the rows before it written.
    A json row's values are encoded one by one: json.dumps with an indent
    builds its encoder's closures anew per call, garbage in cycles per row.
    """
    if fmt == "json":
        import json

        lead = "[\n"
        for row in rows:
            body = ",\n".join(f"    {json.dumps(field)}: {json.dumps(value)}" for field, value in zip(fields, row))
            print(lead + "  {\n" + body + "\n  }", end="")
            lead = ",\n"
        print("\n]")
    else:
        lead = ",".join(fields) + "\n"
        for row in rows:
            print(lead + ",".join(map(str, row)))
            lead = ""


def _compute_pairs(args) -> Iterator[GameParams]:
    """The (n, s) pairs of the two ranges, n before s, made as they are needed.

    Without --relaxed, a pair with n > s is a usage error raised before
    the first pair: the first such pair is (max(n_lo, s_lo + 1), s_lo).
    """
    n_lo, n_hi = parse_range(args.n)
    s_lo, s_hi = parse_range(args.s)
    first = max(n_lo, s_lo + 1)
    if first <= n_hi and not args.relaxed:
        raise UsageError(f"pair n={first}, s={s_lo} has n > s; pass --relaxed to evaluate")
    pairs = ((n, s) for n in range(n_lo, n_hi + 1) for s in range(s_lo, s_hi + 1))
    return (GameParams(n=n, s=s, relaxed=args.relaxed) for n, s in pairs)


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

    def rows():
        for params in pairs:
            value, err, tag = evaluate(params, mode, point)
            yield params.n, params.s, quantity, tag, format_value(value, precision), format_value(err, precision)

    _emit(rows(), COMPUTE_FIELDS, args.format)
    return 0


def _cmd_compare(args) -> int:
    precision = _resolve_precision(args)
    mode = NumericMode(kind=args.mode)
    if args.n_max < 1 or args.s_max < args.n_max:
        raise UsageError("need 1 <= --n-max <= --s-max")
    failures = 0

    def rows():
        nonlocal failures
        for n in range(1, args.n_max + 1):
            for s in range(n, args.s_max + 1):
                params = GameParams(n=n, s=s)
                reference = moment_report(params, mode)
                checks = {}  # check -> (gap, the sum of its two values' bounds)
                for method in ("series", "recursive"):
                    other = moment_report(params, mode, method)
                    bound = reference.error_bound + other.error_bound
                    checks[f"mean:{other.method}"] = abs(reference.mean - other.mean), bound
                    checks[f"second-moment:{other.method}"] = abs(reference.second_moment - other.second_moment), bound
                profile = chain.absorption_cdf_profile(params, max(CDF_SPOT_TURNS), mode)
                for t in CDF_SPOT_TURNS:
                    value, bound, _ = ROUTES[("cdf", "auto")](params, mode, t)
                    bound += 0 if mode.exact else chain.absorption_step_bound(params, t)
                    checks[f"cdf:power:t={t}"] = abs(profile[t] - value), bound
                check, (gap, _) = max(checks.items(), key=lambda item: item[1][0])
                status = "ok" if all(gap <= bound for gap, bound in checks.values()) else "fail"
                failures += status == "fail"
                yield n, s, format_value(gap, precision), check, status

    _emit(rows(), ("n", "s", "max_discrepancy", "worst_check", "status"), args.format)
    if failures:
        print(f"compare: {failures} pair(s) with a gap past its two values' summed bounds", file=sys.stderr)
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


def _signature_labeller(n: int):
    """Label of a signature of n dice: its values joined, with "-" between them past 9 dice."""
    names, sep = [str(v) for v in range(n + 1)], "" if n <= 9 else "-"
    return lambda sig: sep.join([names[v] for v in sig])


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
        label = _signature_labeller(params.n)
        rows = [(*base, label(sig), count) for sig, count in ordered]
        fields = ("signature", "count")
    _emit(rows, ("n", "s", "trials", "seed", *fields), args.format)
    return 0


def _cmd_signatures(args) -> int:
    if args.n < 1:
        raise UsageError("--n must be at least 1")
    if args.count_only:
        _check_printable(args.n)  # 2**(n-1) has n bits; refused before it is built
        count = format_value(1 << (args.n - 1), DEFAULT_PRECISION)
        _emit([(count,)], ("count",), args.format)
        return 0
    sigs = simulate.enumerate_signatures(args.n)
    _emit(((label,) for label in map(_signature_labeller(args.n), sigs)), ("signature",), args.format)
    return 0


#: Each command's help line and options, as (option string, add_argument's
#: keywords), with the options every command takes (_COMMON_OPTIONS) last:
#: the one declaration both the argparse tree and the option tables are built from.
_COMMON_OPTIONS = (
    ("--format", dict(choices=("csv", "json"), default="csv")),
    ("--precision", dict(type=int)),
)
_COMMANDS = {
    "compute": ("moments, pmf/cdf points, quantiles", (
        ("--n", dict(required=True, help="dice count or range A..B")),
        ("--s", dict(required=True, help="face count or range A..B")),
        ("--quantity", dict(required=True, choices=tuple(dict.fromkeys(q for q, _ in ROUTES)))),
        ("--method", dict(
            choices=(*dict.fromkeys(m for _, m in ROUTES if m != "auto"), "monte-carlo"),
            help="force one path; default is closed with automatic series fallback",
        )),
        ("--mode", dict(choices=("float", "exact"), default="float")),
        ("--relaxed", dict(action="store_true", help="allow n > s")),
        ("--y", dict(type=int, help="point for pmf/cdf")),
        ("--prob", dict(type=float, help="level for quantile")),
    )),
    "compare": ("cross-check evaluation paths", (
        ("--n-max", dict(type=int, required=True)),
        ("--s-max", dict(type=int, required=True)),
        ("--mode", dict(choices=("float", "exact"), default="float")),
    )),
    "figures": ("bound-versus-exact curve data", (
        ("--figure", dict(choices=("ev-bounds", "var-bounds"), required=True)),
        ("--panel", dict(choices=("fixed-s", "fixed-n"), required=True)),
    )),
    "simulate": ("seeded Monte Carlo", (
        ("--n", dict(type=int, required=True)),
        ("--s", dict(type=int, required=True)),
        ("--trials", dict(type=int, default=10000)),
        ("--seed", dict(type=int, default=0)),
        ("--report", dict(choices=("moments", "signatures", "histogram"), default="moments")),
    )),
    "signatures": ("enumerate removal signatures", (
        ("--n", dict(type=int, required=True)),
        ("--count-only", dict(action="store_true")),
    )),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argparse tree of _COMMANDS, built when main() first needs it.

    Later calls share it. The cache holds one tree of fixed size: it
    takes no arguments, so it never grows, and parsing leaves the parsers
    as they were, so no result depends on the order of the calls. The
    tree holds only data; main() picks the handler, and everything a call
    may change (GEOMAX_PRECISION, the terminal width that --help wraps
    to, sys.stdout and sys.stderr) is read when that call runs. argparse
    is imported here, so a process whose calls the option tables answer
    never loads it.
    """
    import argparse

    parser = argparse.ArgumentParser(
        prog="geomax",
        description="Turn-count distribution of the dice elimination game",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, options) in _COMMANDS.items():
        command = sub.add_parser(name, help=summary)
        for option, keywords in (*options, *_COMMON_OPTIONS):
            command.add_argument(option, **keywords)
    return parser


@functools.cache
def _option_tables() -> dict[str, tuple[dict, dict, frozenset]]:
    """Per command: (its options, its defaults, its required dests), read from _COMMANDS as argparse does.

    An option string maps to (dest, const, type, choices): dest is the
    option without its "--", "-" turned to "_"; a store_true flag has
    type None, stores True and defaults to False; any other option has
    const None, defaults to None unless declared, and type str unless
    declared, where argparse keeps the word as it is.
    """
    tables = {}
    for name, (_, declared) in _COMMANDS.items():
        options, defaults, required = {}, {}, set()
        for option, keywords in (*declared, *_COMMON_OPTIONS):
            dest = option[2:].replace("-", "_")
            if keywords.get("action") == "store_true":
                options[option], defaults[dest] = (dest, True, None, None), False
            else:
                options[option] = (dest, None, keywords.get("type", str), keywords.get("choices"))
                defaults[dest] = keywords.get("default")
            if keywords.get("required"):
                required.add(dest)
        tables[name] = options, defaults, frozenset(required)
    return tables


def _parse_by_table(argv: list[str]) -> SimpleNamespace | None:
    """The fields argparse parses argv into, found in one pass, or None where argparse must parse it.

    It answers only a call of a command whose every later word is a full
    option string of that command, each option but a flag followed by one
    value that does not start with "-", passes its type and lies in its
    choices, and that gives every required option. The last repeat of an
    option wins. Help, "--opt=value", abbreviations, negative numbers,
    "--", stray words and every error go to argparse. The fields come as a
    SimpleNamespace, which the handlers read as they read argparse's
    Namespace, so a call answered here never imports argparse.
    """
    table = _option_tables().get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, required = table
    values = {}
    words = iter(argv[1:])
    for word in words:
        if word not in options:
            return None
        dest, value, convert, choices = options[word]
        if convert is not None:
            value = next(words, "-")  # a missing value is declined as "-" is
            if value[:1] == "-":
                return None
            try:
                value = convert(value)
            except ValueError:  # int and float refuse a word with ValueError alone
                return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
    if not required <= values.keys():
        return None
    return SimpleNamespace(command=argv[0], **{**defaults, **values})


def main(argv=None) -> int:
    """Run one command line (argv, else sys.argv[1:]) and return its exit code.

    A well-formed call (see _parse_by_table) is parsed in one pass over its
    command's option table, which holds what _COMMANDS declares and gives
    the fields argparse would, and builds no argparse tree. The tree, built
    on the first call the table declines, parses every such call, so
    argparse's help pages, usage lines and errors read as the tree writes
    them. The handler is looked up per call.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parse_by_table(argv)
    if args is None:
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
