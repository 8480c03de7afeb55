#!/usr/bin/env python3
"""Write every analytic output of geomax, one line each, for a byte-wise diff.

A refactor that must not change any number is checked by running this on
the parent commit and on the change, then comparing the two files:

    python scripts/route_snapshot.py --out before.txt   # parent checkout
    python scripts/route_snapshot.py --out after.txt    # changed checkout
    cmp before.txt after.txt

Each line is "route n s point value bound". Floats are written with
float.hex, exact values as num/den in hex, quantiles as integers, a refusal as
the exception's type name (ValueError or an ArithmeticError), and a missing
bound as "-". The routes:

* float-auto, -closed, -series, -recursive (ANALYTIC_METHODS): moments for
  n <= s <= s-max; float-closed writes the refusal where its sums fail;
* float-matrix-power and the chain profile (float-profile,
  exact-profile, t <= 40) for s <= min(12, s-max);
* every entry of build_transition_matrix (float-matrix, exact-matrix,
  point "P[k][j]") for s <= min(8, s-max), and its refusal past
  MEMORY_BUDGET in each mode (MATRIX_REFUSALS, point "rows");
* exact-closed, exact-recursive: moments for n <= s <= min(20, s-max);
* float-/exact- pmf, cdf and quantile points for s <= min(12, s-max),
  the float pmf and cdf with the bound their closed route prints, the
  quantile at fixed levels and at each rounded exact cdf value and its
  two float neighbours (the near-ties);
* float quantiles at scale (SCALE_QUANTILES), past exact mode's reach;
* the cliffs benchmark points, under the routes above;
* the chain profile past t = 40 (LONG_PROFILES), in both modes, the exact
  one at (10, 10) to t = 10**5, past TURN_CAP digit products, and the
  float-matrix-power moments at LONG_WALKS: (200, 200), where the float
  chain walks far enough to step a block of turns per matrix product, and
  (2, 4000), whose walk spans many numpy blocks of survival terms;
* the moments at the edges of the double range, of TURN_CAP and of
  MEMORY_BUDGET (REFUSALS), where a route answers or refuses;
* the float chain profile and matrix-power cdf (point "cdf-y=40") where
  the float 1/s is subnormal (SUBNORMAL_CHAIN), and the float points of
  the relaxed (3, 1), where q = 0.

The default run (s-max 40) takes about 3 s on a 2-vCPU Xeon VM.

With --cli the file is instead a transcript of the command line, run in
one process through geomax.cli.main: for each call in CLI_CALLS, the call
with its environment, its exit code, standard output and standard error.
--help pages wrap to HELP_COLUMNS.

With --diff OLD NEW nothing is run: two files of this script's default
output are compared line by line, and each route's count of lines whose
value changed, whose bound changed and whose bound grew is printed:

    python scripts/route_snapshot.py --diff before.txt after.txt

Two --cli transcripts are compared call by call instead, one line per
call, in NEW's order and then OLD's calls that NEW lacks: "same",
"changed", "count only" where the blocks differ only in a refusal's
printed count of digit products (a re-derived count changes no value),
or "only old" or "only new" for a call in one file only.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import math
import os
import pathlib
import re
import shlex
from collections import Counter, defaultdict
from fractions import Fraction

from geomax import (
    EXACT,
    FLOAT,
    GameParams,
    absorption_cdf_profile,
    build_transition_matrix,
    cdf,
    moment_report,
    quantile,
)
from geomax.chain import absorption_step_bound
from geomax.cli import main as cli_main
from geomax.report import ANALYTIC_METHODS, ROUTES

#: The cliffs workload's size classes at their nominal sizes, and every size
#: its seeded generator draws for the matrix-power, fallback and large-s
#: classes, and seed 1's overflow draw: (n, s, mode, method).
CLIFFS = (
    *((10, 10, FLOAT, m) for m in ("auto", "closed", "series", "recursive", "matrix-power")),
    *((10, 10, EXACT, m) for m in ("closed", "recursive")),
    *((60, s, EXACT, "recursive") for s in (60, 61, 62)),
    *((150, s, EXACT, "closed") for s in range(150, 155)),
    (1100, 2000, FLOAT, "auto"),
    (1101, 2013, FLOAT, "auto"),
    (300, 300, FLOAT, "auto"),
    *((n, n, FLOAT, "matrix-power") for n in (49, 50, 51)),
    *((n, 10_000, FLOAT, "auto") for n in range(58, 63)),
    *((n, 20_000, FLOAT, "series") for n in (4, 5, 6)),
    (500, 500, FLOAT, "recursive"),
)

#: Profile horizon and quantile levels of the point routes.
TURNS = 40
LEVELS = (1e-6, 0.001, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9)

#: Float quantile points at scale, as (n, s, level): the float cdf at the
#: median of n = s = 10**4, and three neighbouring doubles at (10**6, 10**9)
#: whose quantile is 14,095,274,640.
SCALE_QUANTILES = (
    (10**4, 10**4, float.fromhex("0x1.00042130673c0p-1")),
    *((10**6, 10**9, float.fromhex(f"0x1.e0d3f2cdabb1{d}p-2")) for d in (7, 8, 9)),
)

#: Chain profile points past TURNS, as (n, s) pairs and turns: both sides of
#: t = 64 and t = 128, and a longer walk.
LONG_PROFILES = ((3, 20), (12, 12))
LONG_TURNS = (63, 64, 65, 127, 128, 129, 200)

#: Float matrix-power moments, as (n, s): (200, 200) stops at 11,281 turns,
#: inside one block of moments.SERIES_BLOCK survival terms; (2, 4000) walks
#: 243,994 turns over 15 blocks, its last terms near 1e-27.
LONG_WALKS = ((200, 200), (2, 4000))

#: Moment requests at the edges of the double range, of TURN_CAP and of
#: MEMORY_BUDGET, as (n, s, mode, method): the series' stop search at
#: s = 2**1022 (directly and as auto's fallback), the matrix-power tail
#: where the float q rounds to 1, a recursion whose values pass the
#: doubles, one where the float 1/s rounds to 0, one whose rows pass
#: TURN_CAP entries, a chain whose matrices pass the budget, and an exact
#: recursion and exact closed sums that pass TURN_CAP digit products.
REFUSALS = (
    (60, 2**1022, FLOAT, "series"),
    (60, 2**1022, FLOAT, "auto"),
    (3, 2**60, FLOAT, "matrix-power"),
    (3, 2**600, FLOAT, "recursive"),
    (3, 2**1080, FLOAT, "recursive"),
    (10**6, 10**6, FLOAT, "recursive"),
    (10**6, 10**6, FLOAT, "matrix-power"),
    (10**4, 10**4, EXACT, "recursive"),
    (2000, 2000, EXACT, "closed"),
)

#: Transition matrices whose Python rows pass MEMORY_BUDGET, as (n, mode),
#: at n = s.
MATRIX_REFUSALS = ((8000, FLOAT), (1000, EXACT))

#: Float chain points, as (n, s), where the float 1/s is subnormal.
SUBNORMAL_CHAIN = ((2, 2**1030),)

#: Terminal width the --cli transcript's --help pages wrap to.
HELP_COLUMNS = 80

#: The --cli transcript's calls, as shell lines: every command of
#: tests/test_cli.py and long exact outputs (a cdf of 64,083 digits a side,
#: a signature count of 6,021 digits), then the error paths, then each
#: --help page. The argparse paths are among them: an abbreviated option,
#: "--opt=value", a negative or empty value, a value outside its choices, a
#: repeated option or flag, a "--" before the command, unrecognized options
#: and words, and -h in the middle of a call.
CLI_CALLS = (
    "geomax compute --n 2 --s 2 --quantity mean --mode exact",
    "geomax compute --n 2 --s 2 --quantity mean",
    "geomax compute --n 2..3 --s 5..6 --quantity mean --mode exact",
    *(
        f"geomax compute --n 3 --s 6 --quantity variance --method {m}"
        for m in ("series", "recursive", "matrix-power")
    ),
    "geomax compute --n 2 --s 2 --quantity pmf --y 2 --mode exact",
    *(
        f"geomax compute --n 12 --s 12 --quantity {q} --y 40 --method {m} --precision 17"
        for q in ("cdf", "pmf")
        for m in ("closed", "matrix-power")
    ),
    "geomax compute --n 12 --s 12 --quantity cdf --y 200 --method matrix-power --precision 17",
    *(f"geomax compute --n 12 --s 12 --quantity {q} --y 40 --method matrix-power --mode exact" for q in ("cdf", "pmf")),
    "geomax compute --n 34 --s 39 --quantity pmf --y 161 --mode exact",
    "geomax compute --n 40 --s 40 --quantity cdf --y 170 --mode exact",
    "geomax compute --n 40 --s 40 --quantity cdf --y 1000 --mode exact",
    "geomax compute --n 2 --s 6 --quantity quantile --prob 0.99",
    "geomax compute --n 2 --s 2 --quantity mean --mode exact --format json",
    "geomax compute --n 5 --s 2 --quantity mean",
    "geomax compute --n 5 --s 2 --quantity mean --relaxed",
    "geomax compute --n 5 --s 2 --quantity mean --relaxed --mode exact",
    "geomax compute --n 2..3 --s 4 --quantity variance",
    "geomax compute --n 25..35 --s 40 --quantity mean --method closed",
    "geomax compute --n 1..40 --s 40 --quantity mean --method recursive",
    "geomax compute --n 2 --s 2 --quantity mean --precision 4",
    "GEOMAX_PRECISION=5 geomax compute --n 2 --s 2 --quantity mean",
    "GEOMAX_PRECISION=5 geomax compute --n 2 --s 2 --quantity mean --precision 3",
    "GEOMAX_PRECISION=lots geomax compute --n 2 --s 2 --quantity mean",
    "GEOMAX_PRECISION=40 geomax compute --n 2 --s 2 --quantity mean",
    "geomax compute --n 2 --s 2 --quantity mean --precision 18",
    "geomax compute --n 2 --s 2 --quantity pmf",
    "geomax compute --n 2 --s 2 --quantity quantile",
    "geomax compute --n 2 --s 2 --quantity mean --method monte-carlo",
    "geomax compute --n 2 --s 2 --quant mean",
    "geomax compute --n=2 --s 2 --quantity mean",
    "geomax compute --n 2 --s 2 --quantity mean --mode exact --mode float",
    "geomax compute --n 2 --s 6 --quantity quantile --prob -0.5",
    "geomax compute --n 2 --s 2 --quantity mean --format xml",
    "geomax compute --n '' --s 2 --quantity mean",
    "geomax signatures --n 3 --count-only --count-only",
    "geomax -- compute --n 2 --s 2 --quantity mean",
    "geomax compare --n-max 30 --s-max 30",
    "geomax compare --n-max 3 --s-max 45",
    "geomax frobnicate",
    "geomax compare --n-max 3 --s-max 5",
    "geomax compare --n-max 3 --s-max 6 --mode exact",
    "geomax compare --n-max 3 --s-max 5 --format json",
    "geomax compare --n-max 3 --s-max 6 --mode exact --format json",
    "geomax compare --n-max 6 --s-max 3",
    *(
        f"geomax figures --figure {f} --panel {p}"
        for f in ("ev-bounds", "var-bounds")
        for p in ("fixed-s", "fixed-n")
    ),
    "geomax figures --figure var-bounds --panel fixed-n --precision 7",
    "geomax figures --figure ev-bounds --panel fixed-n --format json",
    *(
        f"geomax simulate {call}{fmt}"
        for fmt in ("", " --format json")
        for call in (
            "--n 2 --s 2 --trials 4000 --seed 1",
            "--n 2 --s 3 --trials 2000 --seed 2 --report histogram",
            "--n 4 --s 4 --trials 500 --seed 3 --report signatures",
        )
    ),
    # tabulated turns with a tail of a game or two, then a law too spread
    # for its games, every one of them inverted
    "geomax simulate --n 4 --s 6 --trials 100000 --report moments",
    "geomax simulate --n 10 --s 10 --trials 25000 --seed 5 --report histogram",
    "geomax simulate --n 2 --s 100000 --trials 50 --seed 5",
    "geomax simulate --n 2 --s 2 --trials 0",
    "geomax simulate --n 2 --s 2 --seed -4",
    "geomax simulate --n 3 --s 2",
    "geomax signatures --n 3",
    "geomax signatures --n 3 --format json",
    "geomax signatures --n 4",
    *(
        f"geomax signatures --n {n} --count-only{fmt}"
        for n in (3, 40, 20000)
        for fmt in ("", " --format json")
    ),
    "geomax signatures --n 25",
    "geomax",
    "geomax compute --n 2 --quantity bogus",
    "geomax compute --n 2 --s 2 --quantity mean --bogus",
    "geomax compute --n 2 --s 2 --quantity mean extra",
    "geomax signatures --n 3 --bogus 4",
    "geomax compute --n x --s 2 --quantity mean",
    "geomax compute --n 3..2 --s 4 --quantity mean",
    "geomax compute --n 2 --s 2 --quantity mean --precision abc",
    "geomax compute --n 2 --s 2 --quantity mean --method matrix-power --mode exact",
    "geomax compute --n 40 --s 40 --quantity mean --method closed",
    "geomax compute --n 2 --s 2 --quantity pmf --y 0",
    "geomax compute --n 2 --s 2 --quantity cdf --y 3 --method series",
    "geomax compute --n 2 --s 2 --quantity cdf --y -1 --method matrix-power",
    f"geomax compute --n 2 --s 2 --quantity cdf --y {10**12} --method matrix-power",
    "geomax compute --n 2 --s 2 --quantity quantile --prob 0.5 --method recursive",
    "geomax compute --n 2 --s 2 --quantity quantile --prob 1.5",
    f"geomax compute --n 2 --s {2**40} --quantity mean --method series",
    f"geomax compute --n 40 --s {2**35} --quantity mean",
    f"geomax compute --n 2 --s {2**35} --quantity mean --method matrix-power",
    f"geomax compute --n 2 --s {2**1100} --quantity mean --method recursive",
    f"geomax compute --n 60 --s {2**1022} --quantity mean",
    f"geomax compute --n {10**6} --s {10**6} --quantity mean --method matrix-power",
    f"geomax compute --n {10**6} --s {10**6} --quantity mean --method recursive",
    f"geomax compute --n {10**4} --s {10**4} --quantity mean --method recursive --mode exact",
    "geomax compute --n 2000 --s 2000 --quantity mean --mode exact",
    f"geomax compute --n 40 --s 40 --quantity cdf --y {10**5} --mode exact",
    f"geomax compute --n 10 --s 10 --quantity cdf --y {10**5} --method matrix-power --mode exact",
    f"geomax compute --n {10**6} --s {10**6} --quantity cdf --y 3 --method matrix-power --mode exact",
    "geomax figures --figure ev-bounds --panel sideways",
    "geomax simulate --n 2",
    f"geomax simulate --n 2 --s {2**1100}",
    f"geomax simulate --n 1 --s {2 * 10**8} --trials 3 --seed 0 --report histogram",
    "geomax signatures --n 0",
    f"geomax signatures --n {10**8} --count-only",
    "geomax --help",
    "geomax compute --n 2 -h",
    *(f"geomax {c} --help" for c in ("compute", "compare", "figures", "simulate", "signatures")),
)


def fmt(value) -> str:
    if isinstance(value, Fraction):
        return f"{value.numerator:#x}/{value.denominator:#x}"  # no digit limit in hex
    if isinstance(value, float):
        return value.hex()
    return str(value)


def pairs(s_max: int):
    return [GameParams(n, s) for s in range(1, s_max + 1) for n in range(1, s + 1)]


def moment_lines(params: GameParams, mode, method: str):
    route = f"{mode.kind}-{method}"
    try:
        report = moment_report(params, mode, method)
    except (ArithmeticError, ValueError) as exc:
        yield route, params, "report", type(exc).__name__, "-"
        return
    yield route, params, "method", report.method, "-"
    for point in ("mean", "second_moment", "variance"):
        yield route, params, point, fmt(getattr(report, point)), fmt(report.error_bound)


def profile_lines(params: GameParams, mode, turns):
    profile = absorption_cdf_profile(params, max(turns), mode)
    for t in turns:
        bound = fmt(Fraction(0)) if mode.exact else fmt(absorption_step_bound(params, t))
        yield f"{mode.kind}-profile", params, f"t={t}", fmt(profile[t]), bound


def refusable_line(route: str, params: GameParams, point: str, evaluate):
    """The line of evaluate()'s (value, bound), or of its refusal's type name."""
    try:
        value, bound = evaluate()
    except (ArithmeticError, ValueError) as exc:
        return route, params, point, type(exc).__name__, "-"
    return route, params, point, fmt(value), fmt(bound)


def matrix_lines(params: GameParams, mode):
    for k, row in enumerate(build_transition_matrix(params, mode).rows):
        for j, entry in enumerate(row):
            yield f"{mode.kind}-matrix", params, f"P[{k}][{j}]", fmt(entry), "-"


def point_lines(params: GameParams, mode):
    kind = mode.kind
    yield from profile_lines(params, mode, range(TURNS + 1))
    for y in range(TURNS + 1):
        for quantity in ("cdf", "pmf") if y >= 1 else ("cdf",):
            value, bound, _ = ROUTES[(quantity, "closed")](params, mode, y)
            yield f"{kind}-{quantity}", params, f"y={y}", fmt(value), "-" if mode.exact else fmt(bound)
    levels = set(LEVELS)
    for y in range(1, TURNS + 1):
        level = float(cdf(params, y, EXACT))
        levels.update((math.nextafter(level, 0), level, math.nextafter(level, 1)))
    for prob in sorted(p for p in levels if 0 < p < 1):
        yield f"{kind}-quantile", params, f"p={prob.hex()}", fmt(quantile(params, prob, mode)), "-"


def snapshot(s_max: int):
    for params in pairs(s_max):
        for method in (m for m in ANALYTIC_METHODS if m != "matrix-power"):  # O(t n**2)
            yield from moment_lines(params, FLOAT, method)
    for params in pairs(min(12, s_max)):
        yield from moment_lines(params, FLOAT, "matrix-power")
        for mode in (FLOAT, EXACT):
            yield from point_lines(params, mode)
    for params in pairs(min(8, s_max)):
        for mode in (FLOAT, EXACT):
            yield from matrix_lines(params, mode)
    for params in pairs(min(20, s_max)):
        for method in ("closed", "recursive"):
            yield from moment_lines(params, EXACT, method)
    for n, s, mode, method in CLIFFS:
        yield from moment_lines(GameParams(n, s), mode, method)
    for n, s, prob in SCALE_QUANTILES:
        params = GameParams(n, s)
        yield "float-quantile", params, f"p={prob.hex()}", fmt(quantile(params, prob)), "-"
    for n, s in LONG_PROFILES:
        for mode in (FLOAT, EXACT):
            yield from profile_lines(GameParams(n, s), mode, LONG_TURNS)
    params = GameParams(10, 10)
    yield refusable_line(
        "exact-profile",
        params,
        f"t={10**5}",
        lambda: (absorption_cdf_profile(params, 10**5, EXACT)[10**5], Fraction(0)),
    )
    for n, s in LONG_WALKS:
        yield from moment_lines(GameParams(n, s), FLOAT, "matrix-power")
    for n, s, mode, method in REFUSALS:
        yield from moment_lines(GameParams(n, s), mode, method)
    for n, mode in MATRIX_REFUSALS:
        params = GameParams(n, n)
        yield refusable_line(
            f"{mode.kind}-matrix",
            params,
            "rows",
            lambda: (len(build_transition_matrix(params, mode).rows), "-"),
        )
    for n, s in SUBNORMAL_CHAIN:
        params = GameParams(n, s)
        yield refusable_line(
            "float-profile",
            params,
            f"t={TURNS}",
            lambda: (absorption_cdf_profile(params, TURNS)[TURNS], absorption_step_bound(params, TURNS)),
        )
        yield refusable_line(
            "float-matrix-power",
            params,
            f"cdf-y={TURNS}",
            lambda: ROUTES[("cdf", "matrix-power")](params, FLOAT, TURNS)[:2],
        )
    yield from point_lines(GameParams(3, 1, relaxed=True), FLOAT)


def cli_transcript():
    """One block per call of CLI_CALLS: "$ " and the call, its exit code, stdout, stderr."""
    os.environ.pop("GEOMAX_PRECISION", None)
    os.environ["COLUMNS"] = str(HELP_COLUMNS)
    for call in CLI_CALLS:
        words = shlex.split(call)
        start = words.index("geomax")
        env = dict(word.split("=", 1) for word in words[:start])
        os.environ.update(env)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli_main(words[start + 1 :])
        for name in env:
            del os.environ[name]
        yield f"$ {call}\nexit {code}\n--- stdout\n{out.getvalue()}--- stderr\n{err.getvalue()}"


def read_snapshot(text: str) -> dict:
    """{(route, n, s, point, k): (value, bound)}, k counting the earlier lines of one key."""
    lines, seen = {}, Counter()
    for line in text.splitlines():
        route, n, s, point, value, bound = line.split(" ")
        key = (route, n, s, point)
        lines[(*key, seen[key])] = value, bound
        seen[key] += 1
    return lines


def parse_bound(text: str):
    """A written bound as a number (a float, or a Fraction for exact ones), None for "-"."""
    if text == "-":
        return None
    if "/" in text:
        num, den = text.split("/")
        return Fraction(int(num, 16), int(den, 16))
    return float.fromhex(text)


def diff_snapshots(old: dict, new: dict) -> dict:
    """Per route: Counter of lines, value and bound changes, grown bounds, and lines in one file only."""
    routes = defaultdict(Counter)
    for key in old.keys() | new.keys():
        counts = routes[key[0]]
        if key not in new or key not in old:
            counts["only old" if key in old else "only new"] += 1
            continue
        (old_value, old_bound), (new_value, new_bound) = old[key], new[key]
        counts["lines"] += 1
        counts["value"] += old_value != new_value
        counts["bound"] += old_bound != new_bound
        before, after = parse_bound(old_bound), parse_bound(new_bound)
        counts["grew"] += before is not None and after is not None and after > before
    return dict(sorted(routes.items()))


def print_diff(routes: dict) -> None:
    for route, counts in routes.items():
        grew = f"bound grew on {counts['grew']}" if counts["grew"] else "no bound grew"
        line = f"{route}: {counts['lines']} lines, {counts['value']} changed value, "
        line += f"{counts['bound']} changed bound, {grew}"
        for side in ("only old", "only new"):
            if counts[side]:
                line += f", {counts[side]} {side}"
        print(line)


#: A refusal's printed count, the part of a transcript a re-derived count changes.
REFUSAL_COUNT = re.compile(r"(?<=takes up to )\d+(?= digit products)")


def read_transcript(text: str) -> dict:
    """{call: its block} of a --cli transcript, in the transcript's order."""
    blocks = re.split(r"^\$ ", text, flags=re.MULTILINE)[1:]
    return {block.split("\n", 1)[0]: block for block in blocks}


def diff_transcripts(old: dict, new: dict) -> list[str]:
    """One "status: call" line per call of new, then per call of old that new lacks."""
    lines = []
    for call in [*new, *(call for call in old if call not in new)]:
        if call not in old or call not in new:
            status = "only old" if call in old else "only new"
        elif old[call] == new[call]:
            status = "same"
        elif REFUSAL_COUNT.sub("N", old[call]) == REFUSAL_COUNT.sub("N", new[call]):
            status = "count only"
        else:
            status = "changed"
        lines.append(f"{status}: {call}")
    return lines


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path)
    parser.add_argument("--s-max", type=int, default=40)
    parser.add_argument("--cli", action="store_true", help="write the CLI transcript instead")
    parser.add_argument(
        "--diff", nargs=2, type=pathlib.Path, metavar=("OLD", "NEW"), help="compare two --out files"
    )
    args = parser.parse_args()
    if args.diff:
        texts = [path.read_text() for path in args.diff]
        if all(text.startswith("$ ") for text in texts):
            print(*diff_transcripts(*map(read_transcript, texts)), sep="\n")
        else:
            print_diff(diff_snapshots(*map(read_snapshot, texts)))
        return
    if args.out is None:
        parser.error("--out is required unless --diff is given")
    with args.out.open("w") as fh:
        if args.cli:
            fh.writelines(cli_transcript())
            return
        for route, params, point, value, bound in snapshot(args.s_max):
            fh.write(f"{route} {params.n} {params.s} {point} {value} {bound}\n")


if __name__ == "__main__":
    main()
