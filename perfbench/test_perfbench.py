"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import reference  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

CALL_KEYS = {"id", "cls", "group", "call", "n", "s", "mode", "method", "trials", "seed"}
CLI_KEYS = {"id", "cls", "group", "argv", "n", "s", "quantity", "mode", "method", "y", "prob",
            "n_max", "s_max", "figure", "panel"}


def test_request_lists_are_pure_functions_of_workload_and_seed():
    for name in workloads.GENERATORS:
        first = workloads.generate(name, 7)
        assert first == workloads.generate(name, 7)
        assert first != workloads.generate(name, 8)
        assert json.loads(json.dumps(first)) == first


def test_generation_ignores_hash_seed():
    code = (
        "import json, sys, workloads; "
        "print(json.dumps({w: workloads.generate(w, 3) for w in workloads.GENERATORS}))"
    )
    outputs = {
        subprocess.run(
            [sys.executable, "-c", code],
            cwd=HERE,
            env=dict(os.environ, PYTHONHASHSEED=hash_seed),
            capture_output=True,
            text=True,
            check=True,
        ).stdout
        for hash_seed in ("1", "2")
    }
    assert len(outputs) == 1


def test_program_receives_only_generated_inputs():
    for name in workloads.GENERATORS:
        for request in workloads.generate(name, 0):
            if "argv" in request:
                assert set(request) <= CLI_KEYS
                assert all(isinstance(arg, str) for arg in request["argv"])
            else:
                assert set(request) <= CALL_KEYS


def test_workload_shapes():
    grid = workloads.generate("grid", 0)
    pairs = {(r["n"], r["s"]) for r in grid if r["cls"] == "compute"}
    assert len(pairs) == 820 == sum(r["cls"] == "compute" for r in grid)
    exact = sum(r.get("mode") == "exact" for r in grid) / len(grid)
    assert 0.2 < exact < 0.3
    cliffs = workloads.generate("cliffs", 0)
    assert [r["cls"] for r in cliffs].count("overflow") == 1
    assert all(len(workloads.generate(w, s)) == len(workloads.generate(w, 0))
               for w in workloads.GENERATORS for s in (1, 2))


def test_reference_hand_values():
    reference.self_check()
    assert reference.exact_moments(2, 2).mean == Fraction(8, 3)
    exact = reference.exact_moments(30, 40)
    series = reference.series_moments(30, 40)
    assert abs(series.variance - exact.variance) <= series.err
    assert reference.cdf(1, 6, 1) == Fraction(1, 6)
    assert reference.quantile(1, 2, 0.5) == 1
    assert reference.quantile(1, 2, 0.75) == 2


def test_self_times_on_a_synthetic_span_tree():
    # root [0,10] holds a [1,4] (which holds b [2,3]) and c [5,9]
    spans = [
        [tracer.REQUEST, -1, 0, 0.0, 10.0, None, None],
        ["report.moment_report", 0, 0, 1.0, 4.0, None, {"method": "auto", "route": "series"}],
        ["moments._series_mean_float", 1, 0, 2.0, 3.0,
         {"kernels.CompensatedAccumulator.add": 5}, None],
        ["chain.second_moments_recursive", 0, 0, 5.0, 9.0, None, None],
        ["chain.build_transition_matrix", 3, 0, 5.5, 6.0, None, {"n": 3}],
    ]
    assert tracer.self_times(spans) == [3.0, 2.0, 1.0, 3.5, 0.5]
    metrics = tracer.with_ratios(tracer.aggregate(spans, {"kernels.CompensatedAccumulator.add": 5}))
    assert metrics["report.self_s"] == 2.0
    assert metrics["report.fallbacks"] == 1
    assert metrics["report.closed_useful_ratio"] == 0.0
    assert metrics["moments.series_s"] == 1.0
    assert metrics["moments.series_terms"] == 5
    assert metrics["chain.recursive_s"] == 4.0
    assert metrics["chain.matrix_entries"] == 10
    assert metrics["kernels.accumulator_adds"] == 5


def test_tracer_spans_counts_and_restores():
    import geomax

    params = geomax.GameParams(12, 12)
    original = geomax.moment_report
    plain = geomax.moment_report(params, geomax.FLOAT, "recursive")
    geomax.kernels._pascal_row.cache_clear()
    recorder = tracer.Tracer()
    assert recorder.install(geomax) > 20
    try:
        traced = geomax.moment_report(params, geomax.FLOAT, "recursive")
        geomax.cli.main(["signatures", "--n", "3", "--count-only"])
    finally:
        recorder.uninstall()
    assert geomax.moment_report is original
    assert traced == plain
    names = [span[tracer.NAME] for span in recorder.spans]
    assert "report.moment_report" in names and "chain.build_transition_matrix" in names
    assert "cli.main" in names
    assert not any(name.startswith("kernels.binomial") for name in names)
    assert recorder.totals["kernels.binomial"] > 0
    # rows 0..12 each built from scratch: sum of (i+1)(i+2)/2 = C(15, 3)
    assert recorder.totals["kernels.pascal_rows_built"] == 13
    assert recorder.totals["kernels.pascal_cells"] == 455
    note = recorder.spans[names.index("report.moment_report")][tracer.NOTE]
    assert note == {"method": "recursive", "route": "recursive"}


def test_checker_failure_kinds():
    checker = checks.Checker()
    request = {"cls": "x", "call": "moment_report", "n": 2, "s": 2, "mode": "float", "method": "auto"}
    ref = checker.moments(2, 2)
    good = {"mean": float(ref.mean), "second_moment": float(ref.second_moment),
            "variance": float(ref.variance), "error_bound": 1e-12, "method": "closed-alternating"}
    assert checker.check(request, {"error": None, "value": good}) == []
    bad = dict(good, mean=8 / 3 + 1e-9)
    assert checker.check(request, {"error": None, "value": bad})[0]["kind"] == "bound"
    exact = dict(request, mode="exact")
    wrong = dict(good, mean="8/1", second_moment="0/1", variance="0/1")
    assert checker.check(exact, {"error": None, "value": wrong})[0]["kind"] == "exact"


def _one_pass(request, value):
    entry = {"id": 0, "latency": 1.0, "error": None, "value": value}
    if isinstance(value, str):
        entry = {"id": 0, "latency": 1.0, "error": {"type": value, "message": ""}}
    return [{"traced": False, "results": [entry]}]


def test_known_defects_are_keyed_on_kind_and_request():
    checker = checks.Checker()
    ref = checker.moments(60, 10_000)
    off = float(ref.second_moment) * (1 + 1e-9)
    value = {"mean": float(ref.mean), "second_moment": off, "variance": float(ref.variance),
             "error_bound": 1e-12}
    fallback = {"id": 0, "cls": "fallback", "call": "moment_report", "n": 60, "s": 10_000,
                "mode": "float", "method": "auto"}
    _, failures = run.check_passes([fallback], _one_pass(fallback, dict(value, method="series")), checker)
    assert failures[0]["kind"] == "bound" and failures[0]["known"]
    assert run.is_correct(failures)
    # the same bound break on the closed sums is a new failure
    _, failures = run.check_passes(
        [fallback], _one_pass(fallback, dict(value, method="closed-alternating")), checker)
    assert failures[0]["kind"] == "bound" and failures[0]["known"] is None
    assert not run.is_correct(failures)
    # an OverflowError is known only on the overflow request
    for cls, known in (("overflow", True), ("fallback", False)):
        request = dict(fallback, cls=cls)
        _, failures = run.check_passes([request], _one_pass(request, "OverflowError"), checker)
        assert run.is_correct(failures) is known


def test_times_are_scaled_by_the_calibrations_around_them():
    # request 0 runs among calibrate() runs at half the reference speed;
    # request 1 has such runs before it and reference-speed runs after it
    slow, ref = 2 * run.CAL_REF_S, run.CAL_REF_S
    cal = [[0.01 * k, slow] for k in range(run.CAL_NEAR)]
    cal += [[1.0 + 0.01 * k, slow] for k in range(run.CAL_NEAR)]
    cal += [[2.0 + 0.01 * k, ref] for k in range(2 * run.CAL_NEAR)]
    results = [{"id": 0, "start": 0.5, "latency": 0.4}, {"id": 1, "start": 1.5, "latency": 0.4}]
    slow_pass = {"cal": cal, "results": results}
    assert run.request_scales(slow_pass) == pytest.approx([0.5, 2 / 3])
    fast_pass = {"cal": [[0.0, ref]], "results": results}
    assert run.typical_latencies([slow_pass, fast_pass, fast_pass]) == [0.4, 0.4]
    assert run.typical_latencies([slow_pass], scaled=False) == [0.4, 0.4]
    assert run.scaled_setup(0.0, {"ready": 0.2, "cal": [[0.3, slow]] * 3}) == 0.1


def test_tail_percentile_leaves_ten_requests_beyond():
    for name, p in run.TAIL_PERCENTILE.items():
        count = len(workloads.generate(name, 0))

        def beyond(q):
            return count - math.ceil(q / 100 * count)

        assert beyond(p) >= 10 > beyond(p + 1)
    assert run.nearest_rank([3.0, 1.0, 2.0, 4.0], 75) == 3.0
