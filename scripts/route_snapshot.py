#!/usr/bin/env python3
"""Write every analytic output of geomax, one line each, for a byte-wise diff.

A refactor that must not change any number is checked by running this on
the parent commit and on the change, then comparing the two files:

    python scripts/route_snapshot.py --out before.txt   # parent checkout
    python scripts/route_snapshot.py --out after.txt    # changed checkout
    cmp before.txt after.txt

Each line is "route n s point value bound". Floats are written with
float.hex, exact values as num/den in hex, quantiles as integers, a refusal as
the exception's type name, and a missing bound as "-". The routes:

* float-auto, float-series, float-recursive: moments for n <= s <= s-max;
* float-closed: moments wherever the closed sums hold, else the refusal;
* float-matrix-power and the chain profile (float-profile,
  exact-profile, t <= 40) for s <= min(12, s-max);
* exact-closed, exact-recursive: moments for n <= s <= min(20, s-max);
* float-/exact- pmf, cdf and quantile points for s <= min(12, s-max),
  the quantile at fixed levels and at each rounded exact cdf value and
  its two float neighbours (the near-ties);
* the cliffs benchmark points, under the routes above.

The default run (s-max 40) takes about 3 s on a 2-vCPU Xeon VM.
"""

from __future__ import annotations

import argparse
import math
import pathlib
from fractions import Fraction

from geomax import (
    EXACT,
    FLOAT,
    CancellationError,
    GameParams,
    absorption_cdf_profile,
    cdf,
    moment_report,
    pmf,
    quantile,
)
from geomax.chain import absorption_step_bound

#: The cliffs workload's size classes at their nominal sizes:
#: (n, s, mode, method).
CLIFFS = (
    *((10, 10, FLOAT, m) for m in ("auto", "closed", "series", "recursive", "matrix-power")),
    *((10, 10, EXACT, m) for m in ("closed", "recursive")),
    *((60, s, EXACT, "recursive") for s in (60, 61, 62)),
    *((150, s, EXACT, "closed") for s in range(150, 155)),
    (1100, 2000, FLOAT, "auto"),
    (300, 300, FLOAT, "auto"),
    (50, 50, FLOAT, "matrix-power"),
    (60, 10_000, FLOAT, "auto"),
    (61, 10_000, FLOAT, "auto"),
    (5, 20_000, FLOAT, "series"),
    (500, 500, FLOAT, "recursive"),
)

#: Profile horizon and quantile levels of the point routes.
TURNS = 40
LEVELS = (1e-6, 0.001, 0.1, 0.5, 0.9, 0.999, 1 - 1e-9)


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
    except CancellationError as exc:
        yield route, params, "report", type(exc).__name__, "-"
        return
    yield route, params, "method", report.method, "-"
    for point in ("mean", "second_moment", "variance"):
        yield route, params, point, fmt(getattr(report, point)), fmt(report.error_bound)


def point_lines(params: GameParams, mode):
    kind = mode.kind
    profile = absorption_cdf_profile(params, TURNS, mode)
    for t in range(TURNS + 1):
        bound = fmt(Fraction(0)) if mode.exact else fmt(absorption_step_bound(params, t))
        yield f"{kind}-profile", params, f"t={t}", fmt(profile[t]), bound
    for y in range(TURNS + 1):
        yield f"{kind}-cdf", params, f"y={y}", fmt(cdf(params, y, mode)), "-"
        if y >= 1:
            yield f"{kind}-pmf", params, f"y={y}", fmt(pmf(params, y, mode)), "-"
    levels = set(LEVELS)
    for y in range(1, TURNS + 1):
        level = float(cdf(params, y, EXACT))
        levels.update((math.nextafter(level, 0), level, math.nextafter(level, 1)))
    for prob in sorted(p for p in levels if 0 < p < 1):
        yield f"{kind}-quantile", params, f"p={prob.hex()}", fmt(quantile(params, prob, mode)), "-"


def snapshot(s_max: int):
    for params in pairs(s_max):
        for method in ("auto", "closed", "series", "recursive"):
            yield from moment_lines(params, FLOAT, method)
    for params in pairs(min(12, s_max)):
        yield from moment_lines(params, FLOAT, "matrix-power")
        for mode in (FLOAT, EXACT):
            yield from point_lines(params, mode)
    for params in pairs(min(20, s_max)):
        for method in ("closed", "recursive"):
            yield from moment_lines(params, EXACT, method)
    for n, s, mode, method in CLIFFS:
        yield from moment_lines(GameParams(n, s), mode, method)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", type=pathlib.Path, required=True)
    parser.add_argument("--s-max", type=int, default=40)
    args = parser.parse_args()
    with args.out.open("w") as fh:
        for route, params, point, value, bound in snapshot(args.s_max):
            fh.write(f"{route} {params.n} {params.s} {point} {value} {bound}\n")


if __name__ == "__main__":
    main()
