"""The runnable scripts start, import the public names they use and finish cleanly."""

from __future__ import annotations

import os
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
        "exact-closed", "exact-recursive",
        *(f"{kind}-{point}" for kind in ("float", "exact") for point in ("profile", "cdf", "pmf", "quantile")),
    }


def test_cli_transcript_is_repeatable_and_reaches_every_exit_code(tmp_path):
    outputs = []
    for name in ("first.txt", "second.txt"):
        result = run_script("route_snapshot.py", "--cli", "--out", str(tmp_path / name))
        assert result.returncode == 0, result.stdout + result.stderr
        outputs.append((tmp_path / name).read_bytes())
    assert outputs[0] == outputs[1]
    lines = outputs[0].decode().splitlines()
    assert {line for line in lines if line.startswith("exit ")} == {f"exit {code}" for code in range(4)}
    commands = [line for line in lines if line.startswith("$ ")]
    assert len(commands) == len(set(commands))
    assert "$ geomax signatures --n 3 --count-only --format json" in commands
