"""geomax benchmark: closed-loop workloads with checked results.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload grid --seed 1 --seconds 15 --trace 0

Workloads (see workloads.py): grid, cliffs, montecarlo. The request list
is a pure function of (workload, seed); each request belongs to a group.
References are computed before anything is timed. Then the passes of
schedule() run, and more after them until --seconds have gone by: each
pass is a fresh interpreter (so the Pascal-row cache starts cold, as for
a CLI user) that issues one group's requests in a closed loop, one
request after the previous one returned. The latency metrics use each
group's first PASSES[workload][group] passes only, so every commit gets
the same number of samples. setup_s is the median, over SETUP_PROBES
extra interpreters and every pass, of the time from spawning the
interpreter until `import geomax, geomax.cli` is done.

All times are reported at a reference machine speed. The machine this
was built on (2 shared vCPUs) runs the same code 10-50% slower for tens
of seconds at a time, which no number of passes within a run averages
out. So each interpreter also times worker.calibrate(), fixed work that
uses no geomax code, and every time it measured is scaled by CAL_REF_S /
(median time of the calibrate() runs around it): the time the work would
have taken while calibrate() took CAL_REF_S. Around a request are the
CAL_NEAR runs just before it and the CAL_NEAR just after it; around the
set-up, all runs of the interpreter.
A change to geomax moves the scaled times as much as the raw ones; a
slower machine moves only the raw ones, which are kept in the metadata.

--trace 0 reports the end-to-end metrics. --trace 1 runs TRACE_PASSES
untraced passes per group, each followed by a traced one, and reports the
per-layer metrics of the traced ones, the accuracy of every route and the
tracing overhead; values of traced and untraced passes must agree request
by request.

The last line of standard output is one JSON object with keys correct,
attempted, failed and metrics. Lines before it give the same metrics
with units, the failures by kind and the run metadata, which is also
written with the spans to perfbench/out/.
"""

from __future__ import annotations

import argparse
import bisect
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import checks
import reference
import tracer
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
WORKER_TIMEOUT_S = 150

#: calibrate() time that the reported times are scaled to: its median on
#: an Intel Xeon (2 vCPU) VM at quiet moments.
CAL_REF_S = 0.0025
CAL_NEAR = 8

#: Untraced passes per request group behind the latency metrics: 15-30 s
#: of passes per workload at the seed commit. A request's latency is the
#: median of its scaled latencies over its group's passes.
PASSES = {
    "grid": {"all": 6},
    "cliffs": {"light": 8, "heavy": 2},
    "montecarlo": {"all": 8},
}

#: Untraced passes per group with --trace 1, each followed by a traced one.
TRACE_PASSES = 2

#: req_tail_ms percentile per workload: the highest whole percentile with
#: at least 10 of the workload's requests beyond it (828 grid, 23 cliffs
#: and 40 montecarlo requests leave 16, 10 and 10 beyond).
TAIL_PERCENTILE = {"grid": 98, "cliffs": 56, "montecarlo": 75}


class BenchError(RuntimeError):
    """The benchmark could not measure (missing source, crashed worker)."""


def _env() -> dict:
    """Worker environment: the checkout's src first, and one BLAS thread.

    geomax makes no BLAS calls, but `import numpy` starts an OpenBLAS
    thread per CPU, and that start-up took 40-110 ms depending on what
    the other CPU was doing; one thread keeps that noise out of setup_s.
    """
    path = os.environ.get("PYTHONPATH")
    return dict(
        os.environ,
        PYTHONPATH=str(SRC) + (os.pathsep + path if path else ""),
        OPENBLAS_NUM_THREADS="1",
    )


def _worker(args: list[str], stdin: str | None = None) -> tuple[float, dict]:
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), str(SRC), *args],
        input=stdin,
        capture_output=True,
        text=True,
        env=_env(),
        timeout=WORKER_TIMEOUT_S,
        check=False,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker {args[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    *lines, last = proc.stdout.splitlines()
    out = json.loads(last)
    out["results"] = [json.loads(line) for line in lines]
    return start, out


def setup_seconds(start: float, out: dict) -> float:
    """Seconds from a worker's spawn to its geomax imports being done."""
    elapsed = out["ready"] - start
    if not 0 < elapsed < WORKER_TIMEOUT_S:
        raise BenchError(f"set-up clock reading {elapsed} is not a duration")
    return elapsed


def speed_scale(calibrations: list[list[float]]) -> float:
    """Factor that takes times measured among these calibrate() runs to the reference speed."""
    return CAL_REF_S / statistics.median(seconds for _, seconds in calibrations)


def scaled_setup(start: float, out: dict) -> float:
    return setup_seconds(start, out) * speed_scale(out["cal"])


def request_scales(run: dict) -> list[float]:
    """speed_scale() of each request of a pass, from the calibrate() runs around it."""
    cal = run["cal"]
    starts = [start for start, _ in cal]
    scales = []
    for entry in run["results"]:
        before = bisect.bisect_left(starts, entry["start"])
        after = bisect.bisect_left(starts, entry["start"] + entry["latency"])
        scales.append(speed_scale(cal[max(0, before - CAL_NEAR):before] + cal[after:after + CAL_NEAR]))
    return scales


def nearest_rank(values: list[float], p: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def git_commit() -> str | None:
    """HEAD of the checkout, or None when the checkout is no git repository.

    The ceiling keeps git from reporting a repository above the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, check=False)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model() -> str | None:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def pass_counts(workload: str, trace: bool) -> dict[str, int]:
    """Untraced passes per group that the metrics use."""
    return {group: TRACE_PASSES if trace else count for group, count in PASSES[workload].items()}


def schedule(counts: dict[str, int]) -> list[str]:
    """The group of each pass, every group's passes spread evenly over the run."""
    slots = sorted(((index + 0.5) / count, group) for group, count in counts.items()
                   for index in range(count))
    return [group for _, group in slots]


def run_passes(requests: list[dict], counts: dict[str, int], seconds: float, trace: bool) -> list[dict]:
    """The scheduled passes, then more in the same order until `seconds` are used.

    With tracing, every untraced pass is followed by a traced one.
    """
    OUT.mkdir(exist_ok=True)
    payloads = {group: json.dumps([r for r in requests if r["group"] == group]) for group in counts}
    order = schedule(counts)
    passes: list[dict] = []
    start = time.perf_counter()
    for index, group in enumerate(itertools.cycle(order)):
        if index >= len(order) and time.perf_counter() - start >= seconds:
            break
        for traced in (False, True) if trace else (False,):
            args = ["run"]
            if traced:
                spans = OUT / f"spans-{group}-{len(passes)}.json"
                args.append(str(spans))
            start_pass, out = _worker(args, payloads[group])
            out["setup_s"] = scaled_setup(start_pass, out)
            out["group"] = group
            out["traced"] = traced
            if traced:
                out["spans_file"] = str(spans)
            passes.append(out)
    return passes


def check_passes(requests: list[dict], passes: list[dict], checker: checks.Checker):
    """Failures of every request in every pass; later passes must repeat the first.

    Returns the verdicts of each request's first pass, by request id, and
    all failures; each carries `known`: the seed-commit defect behind it,
    or None.
    """
    by_id = {request["id"]: request for request in requests}
    first: dict[int, dict] = {}
    for run in passes:
        for entry in run["results"]:
            first.setdefault(entry["id"], entry)
    base = {key: checker.check(by_id[key], entry) for key, entry in first.items()}
    failures: list[dict] = []
    for index, run in enumerate(passes):
        for entry in run["results"]:
            request, ref_entry, verdict = by_id[entry["id"]], first[entry["id"]], base[entry["id"]]
            same = entry["error"] == ref_entry["error"] and entry.get("value") == ref_entry.get("value")
            if not same:
                kind = "trace-mismatch" if run["traced"] else "nondeterministic"
                verdict = [{"kind": kind}]
            for failure in verdict:
                failures.append({"pass": index, "id": request["id"], "cls": request["cls"],
                                 "n": request.get("n"), "s": request.get("s"), **failure,
                                 "known": checks.known_defect(request, failure)})
    return base, failures


def is_correct(failures: list[dict]) -> bool:
    """True when every failure is a known seed-commit defect."""
    return all(f["known"] for f in failures)


def first_passes(runs: list[dict], counts: dict[str, int]) -> list[dict]:
    """The first counts[group] of the given passes of each group."""
    seen: Counter = Counter()
    kept = []
    for run in runs:
        group = run["group"]
        if seen[group] < counts.get(group, 0):
            seen[group] += 1
            kept.append(run)
    return kept


def typical_latencies(runs: list[dict], scaled: bool = True) -> list[float]:
    """Each request's median latency over the given passes, scaled by default."""
    samples: dict[int, list[float]] = {}
    for run in runs:
        scales = request_scales(run) if scaled else [1.0] * len(run["results"])
        for entry, scale in zip(run["results"], scales):
            samples.setdefault(entry["id"], []).append(entry["latency"] * scale)
    return [statistics.median(values) for values in samples.values()]


def end_to_end(workload, passes, counts, setups, failed, attempted) -> tuple[dict, dict]:
    """Latency metrics over each request's typical time in its group's first passes.

    Every pass of a group issues the same requests, so each request has
    one scaled latency per pass; its median over the passes is the
    request's typical cost. The median, the tail and the throughput are
    taken over those. Peak RSS is the largest group's median over its
    passes.
    """
    untraced = [p for p in passes if not p["traced"]]
    typical = typical_latencies(first_passes(untraced, counts))
    p_tail = TAIL_PERCENTILE[workload]
    metrics = {
        "setup_s": statistics.median(setups),
        "req_per_s": len(typical) / sum(typical),
        "req_p50_ms": statistics.median(typical) * 1e3,
        "req_tail_ms": nearest_rank(typical, p_tail) * 1e3,
        "ok_share": 1 - failed / attempted,
        "peak_rss_mb": max(
            statistics.median(p["peak_rss_kb"] for p in untraced if p["group"] == group)
            for group in counts
        ) / 1024,
    }
    tail = {"percentile": p_tail, "requests": len(typical), "passes": counts,
            "beyond": len(typical) - math.ceil(p_tail / 100 * len(typical))}
    return metrics, tail


def per_layer(names: list[str], passes, counts, base, checker) -> dict:
    """Per-layer metrics per pass over the whole request list.

    Each group's sums are averaged over its traced passes; the groups'
    averages add up to one pass over every request.
    """
    traced = [p for p in passes if p["traced"]]
    untraced = [p for p in passes if not p["traced"]]
    sums: Counter = Counter()
    for group in counts:
        runs = [run for run in traced if run["group"] == group]
        group_sums: Counter = Counter()
        for run in runs:
            spans, totals = tracer.load(run["spans_file"])
            group_sums.update(tracer.aggregate(spans, totals))
            group_sums["cli.bytes_out"] += run["bytes_out"]
        for name, value in group_sums.items():
            sums[name] += value / len(runs)
    metrics = tracer.with_ratios(sums)
    for route in checks.ROUTES:
        metrics[f"accuracy.{route}.err_over_bound_max"] = max(checker.accuracy[route], default=0.0)
        metrics[f"accuracy.{route}.violations"] = sum(
            f["kind"] == "bound" and f["route"] == route for verdict in base.values() for f in verdict
        )
    point = checker.accuracy["point"]
    metrics["accuracy.point.err_over_bound_max"] = max(point, default=0.0)
    metrics["accuracy.point.violations"] = sum(ratio > 1 for ratio in point)
    metrics["accuracy.mc_max_z"] = max(checker.mc_z, default=0.0)
    busy = [sum(typical_latencies(first_passes(runs, counts))) for runs in (traced, untraced)]
    metrics["trace.overhead_share"] = busy[0] / busy[1] - 1
    return {name: metrics.get(name, 0.0) for name in names}


def run_metadata(args, spec, requests, passes, counts, failures, failed, attempted, tail) -> dict:
    cls_of = {request["id"]: request["cls"] for request in requests}
    by_class: dict[str, list[float]] = {}
    for run in passes:
        if not run["traced"]:
            for entry in run["results"]:
                by_class.setdefault(cls_of[entry["id"]], []).append(entry["latency"] * 1e3)
    return {
        "workload": args.workload,
        "why": next(w["why"] for w in spec["workloads"] if w["name"] == args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": passes[0]["python"],
        "numpy": passes[0]["numpy"],
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "git_commit": git_commit(),
        "passes": dict(Counter(p["group"] for p in passes)),
        "requests": len(requests),
        "requests_per_run": attempted,
        "tail": tail,
        "fail_share": failed / attempted,
        "failures_by_kind": dict(Counter(f["kind"] for f in failures)),
        "new_failures_by_kind": dict(Counter(f["kind"] for f in failures if not f["known"])),
        "latency_ms_by_class": {
            cls: {"count": len(v), "median": statistics.median(v), "max": max(v)}
            for cls, v in by_class.items()
        },
        "cal_ref_s": CAL_REF_S,
        "speed_scale_by_pass": [round(speed_scale(p["cal"]), 4) for p in passes],
        "unscaled_req_p50_ms": statistics.median(
            typical_latencies(first_passes([p for p in passes if not p["traced"]], counts), scaled=False)
        ) * 1e3,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "geomax" / "__init__.py").is_file():
        print(f"error: no geomax sources under {SRC}", file=sys.stderr)
        return 2
    sys.set_int_max_str_digits(0)  # the checker parses exact outputs of any size
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    reference.self_check()
    requests = workloads.generate(args.workload, args.seed)
    checker = checks.Checker()
    checker.prepare(requests)
    try:
        setups = [scaled_setup(*_worker(["setup"])) for _ in range(SETUP_PROBES)]
        counts = pass_counts(args.workload, bool(args.trace))
        passes = run_passes(requests, counts, args.seconds, bool(args.trace))
        setups += [p["setup_s"] for p in passes]
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    base, failures = check_passes(requests, passes, checker)
    attempted = sum(len(p["results"]) for p in passes)
    failed = len({(f["pass"], f["id"]) for f in failures})
    e2e, tail = end_to_end(args.workload, passes, counts, setups, failed, attempted)
    if args.trace:
        metrics = per_layer([m["name"] for m in spec["per_layer"]], passes, counts, base, checker)
    else:
        metrics = e2e
    meta = run_metadata(args, spec, requests, passes, counts, failures, failed, attempted, tail)
    first_index: dict[int, int] = {}
    latencies: dict[int, list[float]] = {}
    for index, run in enumerate(passes):
        for entry in run["results"]:
            first_index.setdefault(entry["id"], index)
            if not run["traced"]:
                latencies.setdefault(entry["id"], []).append(entry["latency"] * 1e3)
    first_pass = [f for f in failures if f["pass"] == first_index[f["id"]]]
    with open(OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json", "w") as fh:
        json.dump({"meta": meta, "end_to_end": e2e, "metrics": metrics,
                   "failures_first_pass": first_pass, "latencies_ms": latencies},
                  fh, default=str)

    print(f"workload {args.workload}: {meta['why']}")
    print("meta " + json.dumps({k: v for k, v in meta.items() if k not in ("why", "latency_ms_by_class")}))
    for failure in first_pass:
        known = "known" if failure["known"] else "NEW"
        print(f"failure [{known}] " + json.dumps({k: v for k, v in failure.items() if k != "pass"}))
    if not args.trace:
        print(f"fail_share {meta['fail_share']:.6g} ratio")
        print(f"req_tail_ms is p{tail['percentile']} of {tail['requests']} requests "
              f"({tail['beyond']} beyond it), median of the first passes per group {tail['passes']}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {units[name]}")
    print(json.dumps({
        "correct": is_correct(failures),
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
