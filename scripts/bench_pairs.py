#!/usr/bin/env python3
"""Benchmark two revisions in alternating pairs and summarize the end-to-end metrics.

    python scripts/bench_pairs.py --base HEAD~1 --head HEAD --workload cliffs --pairs 10 --seed 1

Each revision is exported with `git archive` into a temporary directory,
so the repository is only read. Each pair runs both sides' own
`perfbench/run.py --trace 0` for BENCHMARK.json's run_seconds, and the
side that runs first alternates from pair to pair, so a drift in the
machine's speed falls on both. For every end-to-end metric of
BENCHMARK.json the summary holds each side's median and quartiles over
the pairs, in how many pairs the head was better, the head median's
change relative to the base median (positive when worse) and a verdict
against the metric's bound, a relative change:

* unresolved where the base's interquartile range exceeds the bound
  times its median: the base runs spread too widely to tell;
* worse where the head median is worse by more than the bound;
* within otherwise.

The summary is written to BENCH_<head>.json at the root of the
repository, <head> the head commit's first 12 hex digits, with the
machine it ran on: CPU model, vCPUs, Python and numpy. It is keyed by the
workload's name and then by the seed, so a run with another seed (a
confirmation) lands beside the first, and a run with the same workload
and seed replaces its own summary:

    {"head": ..., "workloads": {"cliffs": {"1": {...}, "2": {...}}, "grid": {"1": {...}}}}
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, check=True).stdout


def export(commit: str, into: Path) -> Path:
    """The files of commit, unpacked into the directory into."""
    with tarfile.open(fileobj=io.BytesIO(git("archive", "--format=tar", commit))) as tar:
        tar.extractall(into, filter="data")
    return into


def run_side(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The end-to-end metrics of one run of tree's own perfbench/run.py."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
    proc = subprocess.run(
        [*command, "--seconds", str(seconds), "--trace", "0"], cwd=tree, capture_output=True, text=True
    )
    if proc.returncode != 0:
        sys.exit(f"{tree.name}: perfbench/run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    metrics = json.loads(proc.stdout.splitlines()[-1])["metrics"]
    return {name: metric["value"] for name, metric in metrics.items()}


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"q1": q1, "median": median, "q3": q3}


def summarize(spec: list[dict], base_runs: list[dict], head_runs: list[dict]) -> dict:
    """Per end-to-end metric of spec: both sides' quartiles, the pairs the head won and the verdict."""
    summary = {}
    for metric in spec:
        name, bound = metric["name"], metric["bound"]
        worse_sign = 1 if metric["better"] == "lower" else -1
        base = [run[name] for run in base_runs]
        head = [run[name] for run in head_runs]
        base_q, head_q = quartiles(base), quartiles(head)
        scale = abs(base_q["median"]) or 1.0
        worse_by = worse_sign * (head_q["median"] - base_q["median"]) / scale
        if base_q["q3"] - base_q["q1"] > bound * scale:
            verdict = "unresolved"
        else:
            verdict = "worse" if worse_by > bound else "within"
        better = sum(worse_sign * (h - b) < 0 for b, h in zip(base, head))
        summary[name] = {
            "unit": metric["unit"],
            "better": metric["better"],
            "bound": bound,
            "base": base_q,
            "head": head_q,
            "better_in": f"{better} of {len(base)}",
            "worse_by": worse_by,
            "verdict": verdict,
        }
    return summary


def add_run(record: dict, workload: str, seed: int, summary: dict) -> None:
    """Put summary in record under workload and seed, beside the other seeds' and workloads'."""
    record["workloads"].setdefault(workload, {})[str(seed)] = summary


def machine() -> dict:
    model = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    import numpy

    return {
        "cpu": model,
        "vcpus": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="revision of the base side")
    parser.add_argument("--head", required=True, help="revision of the head side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    commits = {
        side: git("rev-parse", "--verify", f"{getattr(args, side)}^{{commit}}").decode().strip()
        for side in ("base", "head")
    }
    runs: dict[str, list[dict]] = {"base": [], "head": []}
    with tempfile.TemporaryDirectory() as tmp:
        trees = {side: export(commit, Path(tmp) / side) for side, commit in commits.items()}
        for pair in range(args.pairs):
            for side in ("base", "head") if pair % 2 == 0 else ("head", "base"):
                runs[side].append(run_side(trees[side], args.workload, args.seed, spec["run_seconds"]))
            print(f"pair {pair + 1} of {args.pairs} done", file=sys.stderr)
    summary = summarize(spec["end_to_end"], runs["base"], runs["head"])
    path = ROOT / f"BENCH_{commits['head'][:12]}.json"
    record = json.loads(path.read_text()) if path.exists() else {"head": commits["head"], "workloads": {}}
    add_run(record, args.workload, args.seed, {
        "base": commits["base"],
        "pairs": args.pairs,
        "seed": args.seed,
        "seconds": spec["run_seconds"],
        "machine": machine(),
        "metrics": summary,
        "runs": runs,
    })
    path.write_text(json.dumps(record, indent=1) + "\n")
    for name, row in summary.items():
        base, head = row["base"], row["head"]
        print(
            f"{args.workload} {name}: base {base['median']:.4g} [{base['q1']:.4g}, {base['q3']:.4g}], "
            f"head {head['median']:.4g} [{head['q1']:.4g}, {head['q3']:.4g}] {row['unit']}, "
            f"better in {row['better_in']}, {row['verdict']} (bound {row['bound']})"
        )
    print(f"wrote {path.name}")


if __name__ == "__main__":
    main()
