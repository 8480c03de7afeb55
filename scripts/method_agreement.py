#!/usr/bin/env python3
"""Sweep all evaluation paths against each other and report the worst gaps.

Covers the closed alternating sums, the positive series, the chain
recursion, and the matrix-power route over every playable pair up to the
requested sizes, then spot-checks a few pairs against a seeded Monte
Carlo run. Exits nonzero if any analytic gap exceeds the tolerance or
any Monte Carlo estimate falls more than 4 standard errors out.

    python scripts/method_agreement.py --n-max 20 --s-max 20 --trials 200000
"""

from __future__ import annotations

import argparse
import math
import sys

from geomax import (
    EXACT,
    GameParams,
    moment_report,
    monte_carlo_moments,
    second_moments_recursive,
)

MC_SPOTS = [(2, 2), (3, 6), (5, 10)]


def analytic_sweep(n_max: int, s_max: int, tolerance: float) -> bool:
    """Closed/series/recursive within tolerance; power within its own bound."""
    worst = 0.0
    worst_at = None
    power_excess = 0.0
    for s in range(1, s_max + 1):
        for n in range(1, min(n_max, s) + 1):
            params = GameParams(n, s)
            closed = moment_report(params)
            series = moment_report(params, method="series")
            mean, m2 = closed.mean, closed.second_moment
            profile = second_moments_recursive(params)
            gap = max(
                abs(mean - series.mean),
                abs(m2 - series.second_moment),
                abs(mean - profile.first_moments[n]),
                abs(m2 - profile.second_moments[n]),
            )
            if gap > worst:
                worst, worst_at = gap, (n, s)
            power = moment_report(params, method="matrix-power")
            power_gap = max(abs(mean - power.mean), abs(m2 - power.second_moment))
            power_excess = max(power_excess, power_gap - power.error_bound)
    print(f"three-way sweep n<={n_max}, s<={s_max}: worst gap {worst:.3e} at {worst_at}")
    print(f"matrix-power route: worst gap minus reported bound {power_excess:.3e}")
    ok = worst <= tolerance and power_excess <= 0.0
    if not ok:
        print(f"  outside tolerance {tolerance:g} or reported bound", file=sys.stderr)
    return ok


def monte_carlo_spots(trials: int, seed: int) -> float:
    worst_z = 0.0
    for n, s in MC_SPOTS:
        params = GameParams(n, s)
        est = monte_carlo_moments(params, trials, seed)
        truth = moment_report(params, EXACT)
        mean_true, var_true = float(truth.mean), float(truth.variance)
        z = abs(est.mean - mean_true) / math.sqrt(var_true / trials)
        worst_z = max(worst_z, z)
        print(
            f"monte carlo ({n},{s}) trials={trials}: mean {est.mean:.6f} "
            f"vs {mean_true:.6f} (z={z:.2f}), variance {est.variance:.4f} "
            f"vs {var_true:.4f}"
        )
    return worst_z


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n-max", type=int, default=20)
    parser.add_argument("--s-max", type=int, default=20)
    parser.add_argument("--tolerance", type=float, default=1e-9)
    parser.add_argument("--trials", type=int, default=200_000)
    parser.add_argument("--seed", type=int, default=20260822)
    args = parser.parse_args()

    analytic_ok = analytic_sweep(args.n_max, args.s_max, args.tolerance)
    worst_z = monte_carlo_spots(args.trials, args.seed)
    ok = analytic_ok and worst_z < 4.0
    print("agreement ok" if ok else "agreement FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
