"""The package namespace: __all__ lists exactly the public names it binds;
importing it, or running a call that needs no numpy, leaves numpy unloaded;
and importing it, or running a well-formed CLI call, loads no module the
call does not run."""

from __future__ import annotations

import os
import subprocess
import sys
import types
from pathlib import Path

import geomax


def test_all_matches_the_public_names():
    public = {
        name
        for name, value in vars(geomax).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert len(geomax.__all__) == len(set(geomax.__all__))
    assert set(geomax.__all__) == public


#: CLI calls that run no numpy code: the float closed moments, points and
#: quantile, the exact auto moment, recursion and points, a figure panel,
#: an enumeration and a help page.
NUMPY_FREE_CALLS = (
    *(f"compute --n 5 --s 6 --quantity {q}" for q in ("mean", "variance", "second-moment")),
    *(
        f"compute --n 5 --s 6 {point}{mode}"
        for mode in ("", " --mode exact")
        for point in ("--quantity pmf --y 4", "--quantity cdf --y 4", "--quantity quantile --prob .9")
    ),
    "compute --n 5 --s 6 --quantity mean --mode exact",
    "compute --n 5 --s 6 --quantity variance --mode exact --method recursive",
    "figures --figure ev-bounds --panel fixed-s",
    "signatures --n 6",
    "compute --help",
)

NUMPY_PROBE = """
import contextlib, io, sys
import geomax, geomax.cli

def run(call):
    with contextlib.redirect_stdout(io.StringIO()):
        assert geomax.cli.main(call.split()) == 0, call

for call in sys.argv[1:-1]:
    run(call)
print("numpy" in sys.modules)
run(sys.argv[-1])
print("numpy" in sys.modules)
"""


def test_calls_that_run_no_numpy_code_leave_it_unloaded():
    series = "compute --n 5 --s 6 --quantity mean --method series"
    result = subprocess.run(
        [sys.executable, "-c", NUMPY_PROBE, *NUMPY_FREE_CALLS, series],
        env=dict(os.environ, PYTHONPATH=str(Path(geomax.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["False", "True"]  # the series loads it


#: Modules a geomax process loads only where it runs them: records are no
#: dataclasses (which would load inspect), json is loaded by JSON output and
#: argparse by a CLI call the option tables decline.
START_MODULES = ("dataclasses", "inspect", "json", "argparse")

START_PROBE = """
import contextlib, io, sys
import geomax, geomax.cli

def loaded():
    return ",".join(name for name in sys.argv[1].split(",") if name in sys.modules) or "-"

print(loaded())
for call in sys.argv[2:]:
    with contextlib.redirect_stdout(io.StringIO()):
        assert geomax.cli.main(call.split()) == 0, call
    print(geomax.cli._build_parser.cache_info().currsize, loaded())
"""


def test_import_and_a_well_formed_call_build_no_parser():
    well_formed = "compute --n 5 --s 6 --quantity mean"
    calls = (well_formed, "compute --help", f"{well_formed} --format json")
    result = subprocess.run(
        [sys.executable, "-c", START_PROBE, ",".join(START_MODULES), *calls],
        env=dict(os.environ, PYTHONPATH=str(Path(geomax.__file__).parents[1])),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines() == ["-", "0 -", "1 argparse", "1 json,argparse"]
