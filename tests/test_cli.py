"""Command-line behavior: output contract, formatting knobs, exit codes."""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import random
import runpy
import shlex
import subprocess
import sys
import time
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from geomax import EXACT, FLOAT, GameParams, MomentReport, cdf, chain, cli, report
from geomax import params as params_module
from geomax.cli import (
    CDF_SPOT_TURNS,
    FIGURE_GRIDS,
    UsageError,
    figure_rows,
    format_value,
    main,
    parse_range,
)
from geomax.moments import _cdf_bound, _pmf_bound
from geomax.report import ROUTES

HEADER = "n,s,quantity,method,value,error_bound"

#: The command lines of scripts/route_snapshot.py's CLI transcript.
CLI_CALLS = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "route_snapshot.py"))["CLI_CALLS"]


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def csv_rows(out: str) -> list[dict]:
    lines = [line for line in out.splitlines() if line]
    header = lines[0].split(",")
    return [dict(zip(header, line.split(","))) for line in lines[1:]]


def digit_cases() -> list[int]:
    """Ints whose digits format_value must write as str(Decimal(i)) does.

    0 and +-1; 10**m - 1, 10**m and 10**m + 1 at every split point
    m = _LEAF_DIGITS 2**k up to past 40,000 digits, where the writer's
    padding and its choice of split change; and seeded random ints up to
    200,000 bits, with their negatives.
    """
    cases = [0, 1, -1]
    m = cli._LEAF_DIGITS
    while m < 2 * 40_000:
        cases += [10**m - 1, 10**m, 10**m + 1]
        m *= 2
    rng = random.Random(20260)
    for bits in (31, 1_700, 1_701, 5_000, 33_333, 80_000, 200_000):
        i = rng.getrandbits(bits)
        cases += [i, -i]
    return cases


@pytest.fixture(params=[None, 640], ids=["default-limit", "limit-640"])
def int_str_limit(request):
    """Run under the interpreter's limit, then under the least one it accepts, restored after."""
    before = sys.get_int_max_str_digits()
    if request.param is not None:
        sys.set_int_max_str_digits(request.param)
    yield request.param
    sys.set_int_max_str_digits(before)


class TestFormatting:
    def test_ints_print_every_digit_whatever_the_limit(self, int_str_limit):
        if int_str_limit is not None:
            with pytest.raises(ValueError):
                str(10**int_str_limit)
        for i in digit_cases():
            assert format_value(i, 12) == str(Decimal(i)), i.bit_length()

    def test_fractions_print_every_digit_whatever_the_limit(self, int_str_limit):
        rng = random.Random(7)
        for bits in (10, 3_000, 40_000, 120_000):
            num, den = rng.getrandbits(bits), rng.getrandbits(bits // 2) | 1
            value = -Fraction(num, den)
            expected = f"{Decimal(value.numerator)}/{Decimal(value.denominator)}"
            assert format_value(value, 12) == expected
        assert format_value(Fraction(-10**5000, 3), 12) == f"-{Decimal(10**5000)}/3"
        assert format_value(Fraction(-(10**5000)), 12) == str(Decimal(-(10**5000)))

    def test_the_turn_cap_is_compared_with_the_printing_count(self, monkeypatch, capsys):
        # printing reads TURN_CAP from params when it runs: an int of c
        # 30-bit digits takes c**2 // 2 digit products to write, for a
        # value, its bound, or the signature count 2**(n-1) of n bits
        bits = 3_000
        value, products = 2**bits - 1, 100**2 // 2
        monkeypatch.setattr(params_module, "TURN_CAP", products)
        assert format_value(Fraction(1, value), 12) == f"1/{Decimal(value)}"
        code, out, _ = run(capsys, "signatures", "--n", str(bits), "--count-only")
        assert (code, out.splitlines()[1]) == (0, str(Decimal(2 ** (bits - 1))))
        monkeypatch.setattr(params_module, "TURN_CAP", products - 1)
        message = f"writing the digits of a 3000-bit integer takes up to {products} digit products"
        with pytest.raises(ValueError, match=message):
            format_value(Fraction(1, value), 12)
        code, out, err = run(capsys, "signatures", "--n", str(bits), "--count-only")
        assert (code, out) == (2, "") and message in err

    def test_fractions_render_as_ratios(self):
        assert format_value(Fraction(8, 3), 12) == "8/3"
        assert format_value(Fraction(6, 3), 12) == "2"
        assert format_value(Fraction(0), 12) == "0"

    def test_floats_use_significant_digits(self):
        assert format_value(8 / 3, 12) == "2.66666666667"
        assert format_value(8 / 3, 3) == "2.67"
        assert format_value(14.0, 6) == "14"

    def test_parse_range(self):
        assert parse_range("4") == (4, 4)
        assert parse_range("2..9") == (2, 9)
        for bad in ("0", "3..2", "a..b", "1..2..3", ""):
            with pytest.raises(UsageError):
                parse_range(bad)


class TestCompute:
    def test_exact_mean_prints_a_ratio(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean",
            "--mode", "exact",
        )
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == HEADER
        assert lines[1] == "2,2,mean,closed-alternating,8/3,0"

    def test_float_mean_and_error_bound(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean"
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert row["value"] == "2.66666666667"
        assert float(row["error_bound"]) < 1e-12
        assert row["method"] == "closed-alternating"

    def test_ranges_expand_inclusively(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "2..3", "--s", "5..6", "--quantity", "mean",
            "--mode", "exact",
        )
        assert code == 0
        rows = csv_rows(out)
        assert [(r["n"], r["s"]) for r in rows] == [
            ("2", "5"), ("2", "6"), ("3", "5"), ("3", "6")
        ]

    def test_method_forcing_changes_the_tag(self, capsys):
        for method, tag in [
            ("series", "series"),
            ("recursive", "recursive"),
            ("matrix-power", "matrix-power"),
        ]:
            code, out, _ = run(
                capsys, "compute", "--n", "3", "--s", "6", "--quantity", "variance",
                "--method", method,
            )
            assert code == 0
            row = csv_rows(out)[0]
            assert row["method"] == tag
            # 41112990/1002001, pinned by closed form and hand recursion
            assert float(row["value"]) == pytest.approx(41.0308871947, abs=1e-9)

    def test_pmf_point_exact(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "pmf",
            "--y", "2", "--mode", "exact",
        )
        assert code == 0
        assert csv_rows(out)[0]["value"] == "5/16"

    def test_matrix_power_points_print_their_step_bound(self, capsys):
        # the chain's rounding grows with the steps taken; a closed pmf and
        # a closed cdf print their derived bounds
        params = GameParams(12, 12)
        for quantity, truth in (
            ("cdf", cdf(params, 40, EXACT)),
            ("pmf", cdf(params, 40, EXACT) - cdf(params, 39, EXACT)),
        ):
            rows = {}
            for method in ("closed", "matrix-power"):
                code, out, _ = run(
                    capsys, "compute", "--n", "12", "--s", "12", "--quantity", quantity,
                    "--y", "40", "--method", method, "--precision", "17",
                )
                assert code == 0
                rows[method] = csv_rows(out)[0]
            closed = float(rows["closed"]["error_bound"])
            value = float(rows["closed"]["value"])
            assert closed == (_cdf_bound if quantity == "cdf" else _pmf_bound)(params, 40, value)
            row = rows["matrix-power"]
            bound = float(row["error_bound"])
            assert bound > closed
            assert abs(Fraction(float(row["value"])) - truth) <= Fraction(bound)

    def test_every_route_prints_its_evaluators_tag_and_bound(self, capsys):
        params = GameParams(3, 6)
        for (quantity, method), evaluate in ROUTES.items():
            point = {"pmf": 5, "cdf": 5, "quantile": 0.5}.get(quantity)
            argv = ["compute", "--n", "3", "--s", "6", "--quantity", quantity, "--precision", "17"]
            if method != "auto":
                argv += ["--method", method]
            if point is not None:
                argv += ["--prob" if quantity == "quantile" else "--y", str(point)]
            code, out, err = run(capsys, *argv)
            assert code == 0, err
            value, bound, tag = evaluate(params, FLOAT, point)
            assert tag == ("closed-alternating" if method in ("auto", "closed") else method)
            assert csv_rows(out) == [
                {
                    "n": "3", "s": "6", "quantity": quantity, "method": tag,
                    "value": format_value(value, 17), "error_bound": format_value(bound, 17),
                }
            ]

    def test_exact_values_beyond_the_int_to_str_limit(self, capsys):
        # the printed numerator and denominator run past 4300 digits,
        # where str(int) refuses by default
        code, out, err = run(
            capsys, "compute", "--n", "40", "--s", "40", "--quantity", "cdf",
            "--y", "170", "--mode", "exact",
        )
        assert code == 0, err
        num, den = csv_rows(out)[0]["value"].split("/")
        assert len(den) > 4300
        value = Fraction(int(Decimal(num)), int(Decimal(den)))
        assert value == cdf(GameParams(40, 40), 170, EXACT)

    def test_quantile(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "6", "--quantity", "quantile",
            "--prob", "0.99",
        )
        assert code == 0
        assert csv_rows(out)[0]["value"] == "30"

    def test_json_mirrors_csv_fields(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean",
            "--mode", "exact", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == [
            {
                "n": 2,
                "s": 2,
                "quantity": "mean",
                "method": "closed-alternating",
                "value": "8/3",
                "error_bound": "0",
            }
        ]

    def test_relaxed_flag_gates_oversized_dice_counts(self, capsys):
        code, _, err = run(
            capsys, "compute", "--n", "5", "--s", "2", "--quantity", "mean"
        )
        assert code == 2
        assert "--relaxed" in err
        code, out, _ = run(
            capsys, "compute", "--n", "5", "--s", "2", "--quantity", "mean",
            "--relaxed", "--mode", "exact",
        )
        assert code == 0
        assert csv_rows(out)[0]["value"] == "2470/651"
        # a range is refused before its first row, naming its first pair with n > s
        for n, s, first in [("2..6", "4..9", "n=5, s=4"), ("7..8", "3..9", "n=7, s=3")]:
            code, out, err = run(capsys, "compute", "--n", n, "--s", s, "--quantity", "mean")
            assert (code, out) == (2, "")
            assert f"pair {first} has n > s" in err
        assert run(capsys, "compute", "--n", "2..4", "--s", "4..6", "--quantity", "mean")[0] == 0

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_failure_mid_range_leaves_the_rows_before_it(self, capsys, fmt):
        # the closed sums cancel past their bound from n = 29 at s = 40
        argv = ("compute", "--n", "25..35", "--s", "40", "--quantity", "mean", "--method", "closed", "--format", fmt)
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert err.startswith("numeric failure: closed alternating sums at n=29, s=40")
        singles = [run(capsys, *argv[:2], str(n), *argv[3:]) for n in range(25, 29)]
        assert [code for code, _, _ in singles] == [0] * 4
        if fmt == "csv":
            assert out == HEADER + "\n" + "".join(single.split("\n", 1)[1] for _, single, _ in singles)
        else:
            with pytest.raises(json.JSONDecodeError):  # the list is left unclosed
                json.loads(out)
            assert json.loads(out + "\n]") == [json.loads(single)[0] for _, single, _ in singles]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    def test_a_streamed_range_holds_flat_memory(self, fmt):
        class Sink:
            def write(self, text):
                return len(text)

        def peak(last: int) -> int:
            argv = ["compute", "--n", f"1..{last}", "--s", "400", "--quantity", "cdf", "--y", "500", "--format", fmt]
            tracemalloc.start()
            try:
                with contextlib.redirect_stdout(Sink()):
                    assert main(argv) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        peak(400)  # imports and caches first
        # a cdf point's work does not grow with n; rows held until the end
        # took 360 (csv) to 1,910 (json) bytes each
        assert peak(400) - peak(20) < 100 * 380


class TestPrecision:
    def test_flag_controls_digits(self, capsys):
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean",
            "--precision", "4",
        )
        assert code == 0
        assert csv_rows(out)[0]["value"] == "2.667"

    def test_environment_default(self, capsys, monkeypatch):
        monkeypatch.setenv("GEOMAX_PRECISION", "5")
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean"
        )
        assert code == 0
        assert csv_rows(out)[0]["value"] == "2.6667"

    def test_flag_beats_environment(self, capsys, monkeypatch):
        monkeypatch.setenv("GEOMAX_PRECISION", "5")
        code, out, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean",
            "--precision", "3",
        )
        assert code == 0
        assert csv_rows(out)[0]["value"] == "2.67"

    def test_bad_environment_value_is_a_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv("GEOMAX_PRECISION", "lots")
        code, _, err = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean"
        )
        assert code == 2
        assert "GEOMAX_PRECISION" in err
        monkeypatch.setenv("GEOMAX_PRECISION", "40")
        code, _, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean"
        )
        assert code == 2

    def test_out_of_range_flag_rejected(self, capsys):
        code, _, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean",
            "--precision", "18",
        )
        assert code == 2


class TestExitCodes:
    def test_missing_point_for_pmf(self, capsys):
        code, _, err = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "pmf"
        )
        assert code == 2
        assert "--y" in err

    def test_missing_level_for_quantile(self, capsys):
        code, _, _ = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "quantile"
        )
        assert code == 2

    def test_monte_carlo_is_not_a_compute_method(self, capsys):
        code, _, err = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean",
            "--method", "monte-carlo",
        )
        assert code == 2
        assert "simulate" in err

    def test_float_point_past_the_double_range_is_a_usage_error(self, capsys):
        code, _, err = run(
            capsys, "compute", "--n", "2", "--s", str(2**1100), "--quantity", "cdf", "--y", "5"
        )
        assert code == 2
        assert err.startswith("error:") and "smallest normal double" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "n, s, method",
        [
            (2, 2**40, ("--method", "series")),
            (40, 2**35, ()),
            (2, 2**35, ("--method", "matrix-power")),
            (60, 2**1022, ()),
        ],
    )
    def test_walks_past_the_turn_cap_are_refused(self, capsys, n, s, method):
        code, out, err = run(capsys, "compute", "--n", str(n), "--s", str(s), "--quantity", "mean", *method)
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "past TURN_CAP" in err

    def test_recursion_past_the_turn_cap_is_a_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "compute", "--n", str(10**6), "--s", str(10**6), "--quantity", "mean",
            "--method", "recursive",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "entries, past TURN_CAP" in err

    def test_exact_recursion_past_the_turn_cap_is_a_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "compute", "--n", str(10**4), "--s", str(10**4), "--quantity", "mean",
            "--method", "recursive", "--mode", "exact",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "digit products, past TURN_CAP" in err

    @pytest.mark.parametrize("n, s", [(2000, 2000), (16, 10**4299)])
    def test_exact_closed_sums_past_the_turn_cap_are_a_usage_error(self, capsys, n, s):
        # at n = s = 2000 the sums would run for about 40 minutes, at
        # (16, 10**4299), about the largest s the CLI parses, for about 16 s
        start = time.perf_counter()
        code, out, err = run(
            capsys, "compute", "--n", str(n), "--s", str(s), "--quantity", "mean", "--mode", "exact"
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error: the exact closed sums at n=")
        assert "digit products, past TURN_CAP" in err

    def test_recursion_past_the_double_range_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "compute", "--n", "2", "--s", str(2**1100), "--quantity", "mean", "--method", "recursive"
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "smallest normal double" in err

    def test_chain_walk_past_the_turn_cap_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "compute", "--n", "2", "--s", "2", "--quantity", "cdf", "--y", str(10**12),
            "--method", "matrix-power",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "past TURN_CAP" in err

    def test_exact_chain_walk_past_the_turn_cap_is_a_usage_error(self, capsys):
        start = time.perf_counter()
        code, out, err = run(
            capsys, "compute", "--n", "10", "--s", "10", "--quantity", "cdf", "--y", str(10**5),
            "--method", "matrix-power", "--mode", "exact",
        )
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "digit products, past TURN_CAP" in err

    @pytest.mark.parametrize(
        "options",
        [
            ("--quantity", "mean", "--method", "matrix-power"),
            ("--quantity", "cdf", "--y", "3", "--method", "matrix-power", "--mode", "exact"),
        ],
    )
    def test_chain_matrices_past_the_memory_budget_are_a_usage_error(self, capsys, options):
        start = time.perf_counter()
        code, out, err = run(capsys, "compute", "--n", str(10**6), "--s", str(10**6), *options)
        assert time.perf_counter() - start < 1
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "past MEMORY_BUDGET" in err

    def test_histogram_past_the_memory_budget_is_a_usage_error(self, capsys):
        code, out, err = run(
            capsys, "simulate", "--n", "1", "--s", str(2 * 10**8), "--trials", "3", "--seed", "0",
            "--report", "histogram",
        )
        assert (code, out) == (2, "")
        assert err.startswith("error:") and "past MEMORY_BUDGET" in err

    @pytest.mark.parametrize("quantity, value", [("cdf", "1"), ("pmf", "0")])
    def test_float_points_past_the_doubles_answer(self, capsys, quantity, value):
        # y = 2**1100 has no float; the closed points answer all the same
        code, out, err = run(capsys, "compute", "--n", "2", "--s", "4", "--quantity", quantity, "--y", str(2**1100))
        assert (code, err) == (0, "")
        assert csv_rows(out)[0]["value"] == value

    @pytest.mark.parametrize(
        "argv, message",
        [(("simulate", "--n", "2", "--s", str(2**1100)), "game still running")],
    )
    def test_library_failures_are_numeric_failures(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("numeric failure:") and message in err

    def test_cancellation_exit_code(self, capsys):
        # the closed sums without fallback: at 30,30 their derived error
        # bound crosses the refusal threshold
        code, _, err = run(capsys, "compute", "--n", "30", "--s", "30", "--quantity", "mean", "--method", "closed")
        assert code == 3
        assert "precision" in err

    def test_compare_has_no_face_cap(self, capsys):
        code, out, _ = run(capsys, "compare", "--n-max", "3", "--s-max", "45")
        assert code == 0
        rows = csv_rows(out)
        assert len(rows) == 132
        assert all(row["status"] == "ok" for row in rows)

    def test_compare_fails_every_pair_of_a_route_off_by_one_part_in_a_million(self, capsys, monkeypatch):
        # a gap of 1e-6 of the mean passes the summed bounds on every pair,
        # also past n = 28, where the reference is auto's series fallback
        recursive = report.METHODS["recursive"]

        def scaled(params, mode):
            got = recursive(params, mode)
            mean = got.mean * (1 + 1e-6)
            return MomentReport(mean, got.second_moment, got.second_moment - mean**2, got.method, got.error_bound)

        monkeypatch.setitem(report.METHODS, "recursive", scaled)
        code, out, err = run(capsys, "compare", "--n-max", "30", "--s-max", "30")
        assert code == 1
        rows = csv_rows(out)
        assert len(rows) == 465
        assert all(row["status"] == "fail" for row in rows)
        assert "465 pair(s)" in err

    def test_unknown_subcommand(self, capsys):
        assert run(capsys, "frobnicate")[0] == 2

    def test_compare_happy_path(self, capsys):
        code, out, err = run(capsys, "compare", "--n-max", "3", "--s-max", "5")
        assert code == 0
        rows = csv_rows(out)
        assert all(row["status"] == "ok" for row in rows)
        assert all(float(row["max_discrepancy"]) < 1e-9 for row in rows)
        # one row per playable pair with s <= 5
        assert len(rows) == sum(min(3, s) for s in range(1, 6))

    def test_exact_compare_steps_the_chain_to_every_spot_turn(self, capsys, monkeypatch):
        steps = []
        profile = chain.absorption_cdf_profile

        def recording(params, t_max, mode):
            steps.append((t_max, mode))
            return profile(params, t_max, mode)

        monkeypatch.setattr(chain, "absorption_cdf_profile", recording)
        code, out, _ = run(capsys, "compare", "--n-max", "3", "--s-max", "6", "--mode", "exact")
        assert code == 0
        assert steps and all(step == (max(CDF_SPOT_TURNS), EXACT) for step in steps)
        assert max(CDF_SPOT_TURNS) == 50
        assert all(row["max_discrepancy"] == "0" for row in csv_rows(out))

    def test_compare_misordered_limits(self, capsys):
        assert run(capsys, "compare", "--n-max", "6", "--s-max", "3")[0] == 2


class TestFigures:
    def test_panel_values_match_library(self, capsys):
        code, out, _ = run(
            capsys, "figures", "--figure", "ev-bounds", "--panel", "fixed-s"
        )
        assert code == 0
        rows = csv_rows(out)
        assert [r["n"] for r in rows] == ["2", "4", "6", "8", "10"]
        assert all(r["s"] == "10" for r in rows)
        first = rows[0]
        assert float(first["exact"]) == pytest.approx(280 / 19, rel=1e-11)
        assert float(first["elementary_bound"]) == 20.0
        assert float(first["improved_bound"]) == pytest.approx(280 / 19, rel=1e-11)

    def test_every_panel_through_main_matches_figure_rows(self, capsys, monkeypatch):
        # CSV at the default precision and at --precision 7, and JSON, with
        # the header's and the keys' order
        monkeypatch.delenv("GEOMAX_PRECISION", raising=False)
        fields = ["n", "s", "exact", "elementary_bound", "improved_bound"]
        for figure, panel in FIGURE_GRIDS:
            argv = ("figures", "--figure", figure, "--panel", panel)
            rows = {
                precision: [
                    [n, s, *(format_value(value, precision) for value in values)]
                    for n, s, *values in figure_rows(figure, panel)
                ]
                for precision in (12, 7)
            }
            for precision, flags in ((12, ()), (7, ("--precision", "7"))):
                lines = [fields, *rows[precision]]
                expected = "".join(",".join(map(str, line)) + "\n" for line in lines)
                assert run(capsys, *argv, *flags) == (0, expected, "")
            code, out, err = run(capsys, *argv, "--format", "json")
            assert (code, err) == (0, "")
            assert [list(obj.items()) for obj in json.loads(out)] == [
                list(zip(fields, row)) for row in rows[12]
            ]

    def test_figure_rows_ordering_invariant(self):
        for figure in ("ev-bounds", "var-bounds"):
            for panel in ("fixed-s", "fixed-n"):
                for n, s, exact, elementary, improved in figure_rows(figure, panel):
                    assert exact <= improved <= elementary
                    assert n <= s


class TestSimulateCommand:
    def test_moments_report(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "2", "--s", "2", "--trials", "4000",
            "--seed", "1",
        )
        assert code == 0
        row = csv_rows(out)[0]
        assert row["trials"] == "4000" and row["seed"] == "1"
        assert abs(float(row["mean"]) - 8 / 3) < 5 * float(row["std_error_mean"])

    def test_histogram_report_counts_sum_to_trials(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "2", "--s", "3", "--trials", "2000",
            "--seed", "2", "--report", "histogram",
        )
        assert code == 0
        rows = csv_rows(out)
        assert sum(int(r["count"]) for r in rows) == 2000
        assert all(int(r["turn_count"]) >= 1 for r in rows)

    def test_signature_report_labels(self, capsys):
        code, out, _ = run(
            capsys, "simulate", "--n", "4", "--s", "4", "--trials", "500",
            "--seed", "3", "--report", "signatures",
        )
        assert code == 0
        rows = csv_rows(out)
        assert sum(int(r["count"]) for r in rows) == 500
        labels = {r["signature"] for r in rows}
        assert labels <= {"4444", "4441", "4422", "4421", "4333", "4331", "4322", "4321"}
        counts = [int(r["count"]) for r in rows]
        assert counts == sorted(counts, reverse=True)

    def test_bad_trials_and_seed(self, capsys):
        assert run(capsys, "simulate", "--n", "2", "--s", "2", "--trials", "0")[0] == 2
        assert run(capsys, "simulate", "--n", "2", "--s", "2", "--seed", "-4")[0] == 2
        # the simulator's own refusal, not the analytic routes' --relaxed advice
        code, out, err = run(capsys, "simulate", "--n", "3", "--s", "2")
        assert (code, out) == (2, "")
        assert "cannot be played with n > s" in err and "relaxed" not in err


class TestSignaturesCommand:
    def test_listing(self, capsys):
        code, out, _ = run(capsys, "signatures", "--n", "4")
        assert code == 0
        assert out.splitlines() == [
            "signature", "4444", "4441", "4422", "4421", "4333", "4331", "4322", "4321",
        ]

    def test_count_only_skips_enumeration(self, capsys):
        # 2**19999 has more digits than the interpreter's int-to-str limit
        for n in (3, 40, 20000):
            count = str(Decimal(2 ** (n - 1)))
            code, out, _ = run(capsys, "signatures", "--n", str(n), "--count-only")
            assert code == 0
            assert out == f"count\n{count}\n"
            code, out, _ = run(
                capsys, "signatures", "--n", str(n), "--count-only", "--format", "json"
            )
            assert code == 0
            assert json.loads(out) == [{"count": count}]

    def test_count_past_the_printing_limit_is_refused_at_once(self, capsys):
        # 2**(n - 1) has n bits, c = ceil(n / 30) digits and c**2 // 2 digit
        # products to write: 999,983,920 at n = 1,341,630; one bit more
        # passes TURN_CAP
        n = 1_341_630
        code, out, _ = run(capsys, "signatures", "--n", str(n), "--count-only")
        assert code == 0
        count = out.splitlines()[1]
        assert len(count) == (Decimal(2) ** (n - 1)).adjusted() + 1
        assert count[-40:] == f"{pow(2, n - 1, 10**40):040d}"
        for n in (n + 1, 10**8):
            start = time.perf_counter()
            code, out, err = run(capsys, "signatures", "--n", str(n), "--count-only")
            assert time.perf_counter() - start < 1
            assert (code, out) == (2, "")
            assert "TURN_CAP" in err

    def test_count_is_refused_before_it_is_built(self, capsys):
        # 2**(n - 1) takes 50 MB at n = 400,000,000; from about n = 8.6e9 on
        # it would pass MEMORY_BUDGET
        tracemalloc.start()
        try:
            code, out, err = run(capsys, "signatures", "--n", "400000000", "--count-only")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (code, out) == (2, "")
        assert "writing the digits of a 400000000-bit integer" in err
        assert peak < 1e6

    def test_refuses_oversized_enumeration(self, capsys):
        code, _, err = run(capsys, "signatures", "--n", "25")
        assert code == 2


class TestSharedParser:
    """main() builds its parser once; nothing a call reads is kept from an earlier call."""

    def test_later_calls_build_no_parser(self, capsys, monkeypatch):
        run(capsys, "signatures", "--n", "3")
        built = []
        init = argparse.ArgumentParser.__init__

        def counting(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
        for i in range(20):
            code, _, _ = run(capsys, "compute", "--n", "2", "--s", str(2 + i), "--quantity", "mean")
            assert code == 0
        assert built == []

    def test_no_state_carries_over_between_calls(self, capsys):
        valid = ("compute", "--n", "2..3", "--s", "4", "--quantity", "variance")
        alone = run(capsys, *valid)
        assert run(capsys, "compute", "--n", "2", "--quantity", "bogus")[0] == 2
        assert run(capsys, *valid) == alone
        # a flag given once does not stick to the parser
        assert run(capsys, "compute", "--n", "5", "--s", "2", "--quantity", "mean", "--relaxed")[0] == 0
        code, _, err = run(capsys, "compute", "--n", "5", "--s", "2", "--quantity", "mean")
        assert code == 2
        assert "--relaxed" in err

    def test_help_wraps_to_the_width_of_each_call(self, capsys, monkeypatch):
        run(capsys, "signatures", "--n", "3")
        pages = {}
        for columns in (50, 150):
            monkeypatch.setenv("COLUMNS", str(columns))
            code, pages[columns], _ = run(capsys, "compute", "--help")
            assert code == 0
        assert "default is closed with automatic series fallback" in pages[150]
        assert "default is closed with automatic series fallback" not in pages[50]

    def test_first_calls_print_what_calls_after_the_tree_print(self, capsys):
        # one well-formed call of each command, run first in a fresh
        # interpreter, where no argparse tree is built, and here, where it is
        calls = [
            "compute --n 2..3 --s 4 --quantity variance --format json",
            "compare --n-max 3 --s-max 4",
            "figures --figure var-bounds --panel fixed-n",
            "simulate --n 4 --s 6 --trials 1000 --seed 7 --report histogram",
            "signatures --n 4 --count-only",
        ]
        probe = (
            "import contextlib, io, json, sys\n"
            "import geomax.cli\n"
            "runs = []\n"
            "for call in sys.argv[1:]:\n"
            "    out, err = io.StringIO(), io.StringIO()\n"
            "    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):\n"
            "        runs.append([geomax.cli.main(call.split()), out.getvalue(), err.getvalue()])\n"
            "print(json.dumps([geomax.cli._build_parser.cache_info().currsize, runs]))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe, *calls],
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert result.returncode == 0, result.stderr
        built, first = json.loads(result.stdout)
        assert built == 0
        cli._build_parser()
        assert [list(run(capsys, *call.split())) for call in calls] == first
        assert [code for code, _, _ in first] == [0] * len(calls)

    def test_handler_is_resolved_per_call(self, capsys, monkeypatch):
        run(capsys, "signatures", "--n", "3")
        seen = []
        monkeypatch.setattr(cli, "_cmd_signatures", lambda args: seen.append(args.n) or 0)
        assert run(capsys, "signatures", "--n", "3") == (0, "", "")
        assert seen == [3]


#: The command parsers by name, the choices of the tree's subparsers action.
COMMANDS = next(
    action.choices for action in cli._build_parser()._actions if isinstance(action, argparse._SubParsersAction)
)


def fields(namespace: argparse.Namespace) -> dict[str, str]:
    """A Namespace's fields in order, compared by repr, so a nan equals itself."""
    return {name: repr(value) for name, value in vars(namespace).items()}


def parsed_by_command(argv: list[str]) -> dict[str, str]:
    """The fields argv's command parser gives, as the full tree does, which must take every word."""
    try:
        args, rest = COMMANDS[argv[0]].parse_known_args(argv[1:], argparse.Namespace(command=argv[0]))
    except SystemExit:
        pytest.fail(f"argparse refuses {argv}")
    assert rest == [], argv
    return fields(args)


#: Words that no option of a well-formed call takes: negative numbers, other
#: words starting with "-", an empty word, and words outside a type or a
#: choice set (or inside another option's). A change to a call also inserts
#: them as stray words.
ODD_WORDS = (
    "", "-1", "-0.5", "-1e3", "-x", "--", "-h", "--help", "--n", "--bogus", "--relaxed",
    "--count-only", "x", "1.5", "1e3", "2..3", "nan", "xml", "csv", "exact",
)


def valid_values(action: argparse.Action):
    """Words the action takes that do not start with "-"."""
    if action.choices is not None:
        return st.sampled_from(action.choices)
    if action.type is int:
        return st.integers(0, 10**30).map(str)
    if action.type is float:
        return (st.floats(min_value=0.0) | st.just(math.nan)).map(repr)
    assert action.type is None, action
    return st.text(max_size=6).filter(lambda word: not word.startswith("-"))


@st.composite
def calls(draw, changes: int = 0) -> list[str]:
    """A well-formed call, then up to `changes` changes to it.

    The call is full option strings, each with one value it takes, every
    required option among them, some repeated. A change abbreviates an
    option, joins it to its value by "=", gives it (or a flag) an odd word,
    drops it, or inserts a stray word.
    """
    command = draw(st.sampled_from(sorted(COMMANDS)))
    actions = [action for action in COMMANDS[command]._actions if action.default is not argparse.SUPPRESS]
    chosen = [action for action in actions if action.required]
    chosen += draw(st.lists(st.sampled_from(actions), max_size=4))
    items = [
        [draw(st.sampled_from(action.option_strings)), None if action.nargs == 0 else draw(valid_values(action))]
        for action in draw(st.permutations(chosen))
    ]
    kinds = ("abbreviate", "join", "odd value", "drop", "insert")
    for kind in draw(st.lists(st.sampled_from(kinds), max_size=changes)):
        if kind == "insert" or not items:
            items.insert(draw(st.integers(0, len(items))), [draw(st.sampled_from(ODD_WORDS)), None])
            continue
        item = draw(st.sampled_from(items))
        if kind == "abbreviate" and len(item[0]) > 3:
            item[0] = item[0][: draw(st.integers(3, len(item[0]) - 1))]
        elif kind == "join":
            value = draw(st.sampled_from(ODD_WORDS)) if item[1] is None else item[1]
            item[:] = [f"{item[0]}={value}", None]
        elif kind == "odd value":
            item[1] = draw(st.sampled_from(ODD_WORDS))
        elif kind == "drop":
            items.remove(item)
    return [command, *(word for item in items for word in item if word is not None)]


class TestDispatch:
    """main() parses a well-formed call by its command's option table, any other as argparse does."""

    def test_each_valid_call_parses_as_the_full_tree_parses_it(self, capsys):
        parser = cli._build_parser()
        checked = tabled = 0
        for call in CLI_CALLS:
            words = shlex.split(call)
            argv = words[words.index("geomax") + 1 :]
            table = cli._parse_by_table(argv)
            try:
                full = fields(parser.parse_args(argv))
            except SystemExit:  # a usage error or a help page
                assert table is None, call
                continue
            assert parsed_by_command(argv) == full, call
            checked += 1
            if table is not None:
                assert fields(table) == full, call
                tabled += 1
        capsys.readouterr()
        assert checked > 90  # the valid calls of every command
        assert tabled == checked - 5  # --quant, --n=2 and three negative values go to argparse

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(calls())
    def test_the_table_parses_a_well_formed_call_as_argparse_does(self, argv):
        table = cli._parse_by_table(argv)
        assert table is not None, argv
        assert fields(table) == parsed_by_command(argv)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(calls(changes=3))
    def test_the_table_answers_only_as_argparse_does(self, argv):
        table = cli._parse_by_table(argv)
        if table is not None:
            assert fields(table) == parsed_by_command(argv)

    def test_a_valid_call_runs_one_parse(self, capsys, monkeypatch):
        """A call the table takes runs no argparse parse; the full tree parses a declined one."""
        run(capsys, "signatures", "--n", "3")  # the parser and the tables are built before counting
        parses = []
        parse_known_args = argparse.ArgumentParser.parse_known_args

        def counting(self, *args, **kwargs):
            parses.append(self.prog)
            return parse_known_args(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args", counting)
        code, out, _ = run(capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean")
        assert (code, out.splitlines()[0]) == (0, HEADER)
        assert parses == []
        # an abbreviation, then a stray word: the tree hands the words after the command to its parser
        code, abbreviated, _ = run(capsys, "compute", "--n", "2", "--s", "2", "--quant", "mean")
        assert (code, abbreviated) == (0, out)
        assert parses == ["geomax", "geomax compute"]
        parses.clear()
        assert run(capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean", "extra")[0] == 2
        assert parses == ["geomax", "geomax compute"]

    def test_words_the_command_does_not_take_are_reported_by_the_full_tree(self, capsys):
        for extra in ("--bogus", "extra"):
            code, _, err = run(capsys, "compute", "--n", "2", "--s", "2", "--quantity", "mean", extra)
            assert code == 2
            assert err.splitlines() == [
                "usage: geomax [-h] {compute,compare,figures,simulate,signatures} ...",
                f"geomax: error: unrecognized arguments: {extra}",
            ]
