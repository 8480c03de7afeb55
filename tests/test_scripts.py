"""The runnable scripts start, import the public names they use and finish cleanly."""

from __future__ import annotations

import os
import runpy
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_route_snapshot_is_repeatable_and_covers_every_route(tmp_path):
    outputs = []
    for name in ("first.txt", "second.txt"):
        result = run_script("route_snapshot.py", "--out", str(tmp_path / name), "--s-max", "5")
        assert result.returncode == 0, result.stdout + result.stderr
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    routes = {line.split(" ", 1)[0] for line in outputs[0].decode().splitlines()}
    assert routes == {
        "float-auto", "float-closed", "float-series", "float-recursive", "float-matrix-power",
        "exact-closed", "exact-recursive", "float-matrix", "exact-matrix",
        *(f"{kind}-{point}" for kind in ("float", "exact") for point in ("profile", "cdf", "pmf", "quantile")),
    }


def test_cli_transcript_is_repeatable_and_reaches_every_exit_code_but_a_failed_check(tmp_path):
    outputs = []
    for name in ("first.txt", "second.txt"):
        result = run_script("route_snapshot.py", "--cli", "--out", str(tmp_path / name))
        assert result.returncode == 0, result.stdout + result.stderr
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    # exit 1, a compare check past its bounds, needs a faulty route
    # (tests/test_cli.py scales one); every call of a healthy build passes
    assert {line for line in lines if line.startswith("exit ")} == {"exit 0", "exit 2", "exit 3"}
    commands = [line for line in lines if line.startswith("$ ")]
    assert len(commands) == len(set(commands))
    assert "$ geomax signatures --n 3 --count-only --format json" in commands


def test_route_snapshot_diff_counts_each_routes_changes(tmp_path):
    old = [
        "float-series 2 3 method series -",
        "float-series 2 3 mean 0x1.8p+0 0x1.0p-40",
        "float-series 2 3 variance 0x1.0p-1 0x1.0p-40",
        "float-auto 2 3 mean 0x1.8p+0 0x1.0p-40",
        "float-auto 2 3 mean 0x1.8p+0 0x1.0p-40",
        "exact-closed 2 3 mean 0x3/0x2 0x0/0x1",
        "float-closed 9 9 report CancellationError -",
    ]
    new = [
        "float-series 2 3 method series -",
        "float-series 2 3 mean 0x1.8000000000001p+0 0x1.0p-41",  # value and bound, the bound narrower
        "float-series 2 3 variance 0x1.0p-1 0x1.0p-39",  # the bound only, wider
        "float-auto 2 3 mean 0x1.8p+0 0x1.0p-40",
        "float-auto 2 3 mean 0x1.8p+0 0x1.0p-41",  # a repeated line is matched to its own
        "exact-closed 2 3 mean 0x3/0x2 0x0/0x1",
        "float-closed 9 9 mean 0x1.0p+0 0x1.0p-40",
    ]
    for name, lines in (("old.txt", old), ("new.txt", new)):
        (tmp_path / name).write_text("\n".join(lines) + "\n")
    result = run_script("route_snapshot.py", "--diff", str(tmp_path / "old.txt"), str(tmp_path / "new.txt"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "exact-closed: 1 lines, 0 changed value, 0 changed bound, no bound grew",
        "float-auto: 2 lines, 0 changed value, 1 changed bound, no bound grew",
        "float-closed: 0 lines, 0 changed value, 0 changed bound, no bound grew, 1 only old, 1 only new",
        "float-series: 3 lines, 1 changed value, 2 changed bound, bound grew on 1",
    ]


def test_route_snapshot_diff_names_each_calls_change_in_two_transcripts(tmp_path):
    refusal = "exit 2\n--- stdout\n--- stderr\nerror: writing the digits takes up to {} digit products, past TURN_CAP = 9\n"
    old = {
        "geomax a": "exit 0\n--- stdout\n1\n--- stderr\n",
        "geomax b": refusal.format(12),
        "geomax c": refusal.format(12),
        "geomax d": "exit 0\n--- stdout\n--- stderr\n",
        "geomax e": "exit 0\n--- stdout\n--- stderr\n",
    }
    new = {
        "geomax f": "exit 0\n--- stdout\n--- stderr\n",
        "geomax a": "exit 0\n--- stdout\n1\n--- stderr\n",
        "geomax b": refusal.format(13),  # the count alone
        "geomax c": refusal.format(13).replace("exit 2", "exit 3"),  # the count and the exit code
        "geomax d": "exit 1\n--- stdout\n--- stderr\n",
    }
    for name, blocks in (("old.txt", old), ("new.txt", new)):
        (tmp_path / name).write_text("".join(f"$ {call}\n{block}" for call, block in blocks.items()))
    result = run_script("route_snapshot.py", "--diff", str(tmp_path / "old.txt"), str(tmp_path / "new.txt"))
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == [
        "only new: geomax f",
        "same: geomax a",
        "count only: geomax b",
        "changed: geomax c",
        "changed: geomax d",
        "only old: geomax e",
    ]


def test_bench_pairs_summarizes_each_metric_against_its_bound():
    summarize = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["summarize"]
    spec = [
        {"name": "req_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
        {"name": "req_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
    ]
    base = [{"req_per_s": r, "req_p50_ms": 2.0, "setup_s": t} for r, t in zip((100, 104, 96, 100), (1, 2, 1, 2))]
    head = [{"req_per_s": r, "req_p50_ms": 3.0, "setup_s": 1.0} for r in (110, 120, 115, 90)]
    summary = summarize(spec, base, head)
    rate, p50, setup = (summary[m["name"]] for m in spec)
    assert rate["base"] == {"q1": 99.0, "median": 100.0, "q3": 101.0}
    assert rate["head"] == {"q1": 105.0, "median": 112.5, "q3": 116.25}
    assert (rate["better_in"], rate["worse_by"], rate["verdict"]) == ("3 of 4", -0.125, "within")
    assert (p50["better_in"], p50["worse_by"], p50["verdict"]) == ("0 of 4", 0.5, "worse")
    # base quartiles 1 and 2 around a median of 1.5: a spread wider than the bound
    assert (setup["better_in"], setup["verdict"]) == ("2 of 4", "unresolved")
    assert rate["unit"] == "1/s" and rate["bound"] == 0.25 and rate["better"] == "higher"


def test_bench_pairs_keys_each_run_by_workload_and_seed():
    add_run = runpy.run_path(str(ROOT / "scripts" / "bench_pairs.py"))["add_run"]
    record = {"head": "0" * 40, "workloads": {}}
    add_run(record, "cliffs", 1, {"pairs": 10})
    add_run(record, "grid", 1, {"pairs": 3})
    add_run(record, "cliffs", 2, {"pairs": 5})  # a confirmation seed lands beside the first
    add_run(record, "grid", 1, {"pairs": 4})  # the same seed replaces its own
    assert record == {
        "head": "0" * 40,
        "workloads": {"cliffs": {"1": {"pairs": 10}, "2": {"pairs": 5}}, "grid": {"1": {"pairs": 4}}},
    }
