"""The package namespace: __all__ lists exactly the public names it binds,
and importing it, or running a call that needs no numpy, leaves numpy unloaded."""

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
#: quantile, the exact auto moment and points, a figure panel, an
#: enumeration and a help page.
NUMPY_FREE_CALLS = (
    *(f"compute --n 5 --s 6 --quantity {q}" for q in ("mean", "variance", "second-moment")),
    *(
        f"compute --n 5 --s 6 {point}{mode}"
        for mode in ("", " --mode exact")
        for point in ("--quantity pmf --y 4", "--quantity cdf --y 4", "--quantity quantile --prob .9")
    ),
    "compute --n 5 --s 6 --quantity mean --mode exact",
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
