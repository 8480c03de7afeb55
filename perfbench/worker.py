"""One pass of a workload in a fresh interpreter.

Usage (run.py starts it; PYTHONPATH must name the checkout's src):

    python3 perfbench/worker.py SRC_DIR setup
    python3 perfbench/worker.py SRC_DIR run [SPANS_FILE] < requests.json

The first statements import geomax and geomax.cli and read the clock, so
the parent can time set-up from its own clock reading before the spawn
(perf_counter is the system-wide monotonic clock on Linux). `run` then
issues the requests from stdin one after another, each only after the
previous one returned, and prints one JSON line per request (latency and
encoded result) and a last line with the pass summary. With SPANS_FILE it
traces the pass and writes the spans there after the last request.

Both commands also time calibrate(), a fixed piece of work that uses no
geomax code, outside the timed requests: a few runs after the imports,
then after each request as many as keep it at CAL_SHARE of the request
time. Those runs tell the parent how fast the machine was around each
request (see run.py).
"""

import time

import geomax
import geomax.cli

READY = time.perf_counter()

import contextlib  # noqa: E402  (set-up above is timed without these)
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy  # noqa: E402

#: Calibration runs after the imports: the first CAL_WARMUP are not kept.
CAL_WARMUP = 3
CAL_START = 8
#: Calibration time after each request, as a share of its latency.
CAL_SHARE = 0.05


def calibrate() -> list[float]:
    """Start and seconds of a fixed mix of the work geomax does: rationals, big
    binomials, float sums and dict stores; no geomax code, and nothing
    that would load a module or grow the peak RSS."""
    start = time.perf_counter()
    total = Fraction(0)
    table = {}
    for k in range(1, 200):
        total += Fraction(k, k * k + 1)
        table[k] = math.comb(3 * k, k) % 1_000_003
        table[-k] = math.fsum(1.0 / (j + k) for j in range(20))
    return [start, time.perf_counter() - start]


class Calibration:
    """[start, seconds] of each calibrate() run of one interpreter."""

    def __init__(self):
        for _ in range(CAL_WARMUP):
            calibrate()
        self.times = [calibrate() for _ in range(CAL_START)]
        self.owed = 0.0

    def after(self, latency: float) -> None:
        self.owed += CAL_SHARE * latency
        while self.owed > 0:
            self.times.append(calibrate())
            self.owed -= self.times[-1][1]


def encode_number(value):
    """Floats as JSON floats; rationals as hex "num/den" (no digit limit)."""
    if isinstance(value, Fraction):
        return f"{value.numerator:x}/{value.denominator:x}"
    if isinstance(value, int):
        return f"{value:x}/1"
    return float(value)


def _call(request):
    name = request["call"]
    fn = getattr(geomax, name)
    params = geomax.GameParams(request["n"], request["s"])
    if name == "moment_report":
        mode = geomax.EXACT if request["mode"] == "exact" else geomax.FLOAT
        return fn(params, mode, request["method"])
    if name == "play_game":
        return fn(params, seed=request["seed"])
    return fn(params, request["trials"], request["seed"])


def _cli(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = geomax.cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def encode(request, result):
    """JSON-ready form of one result, computed outside the timed region."""
    if "argv" in request:
        code, out, err = result
        return {"code": code, "stdout": out, "stderr": err[-2000:]}
    name = request["call"]
    if name == "moment_report":
        return {
            "mean": encode_number(result.mean),
            "second_moment": encode_number(result.second_moment),
            "variance": encode_number(result.variance),
            "error_bound": encode_number(result.error_bound),
            "method": result.method,
        }
    if name == "monte_carlo_moments":
        return {
            "mean": result.mean,
            "variance": result.variance,
            "std_error_mean": result.std_error_mean,
            "trials": result.trials,
        }
    if name == "turn_count_histogram":
        return [int(c) for c in result]
    if name == "signature_frequencies":
        return sorted([list(sig), count] for sig, count in result.items())
    return {
        "turns": [list(t) for t in result.turns],
        "removed_per_turn": list(result.removed_per_turn),
        "signature": list(result.signature),
        "turn_count": result.turn_count,
    }


def run(requests, out, calibration, tracer=None) -> int:
    """Issue the requests in order; one JSON line per result goes to out.

    Results are written as they come, outside the timed region, so the
    worker's peak RSS is the program's and not a growing result list.
    Returns the bytes the CLI printed.
    """
    bytes_out = 0
    for request in requests:
        error = None
        result = None
        span = tracer.begin_request(request["id"]) if tracer else None
        start = time.perf_counter()
        try:
            result = _cli(request["argv"]) if "argv" in request else _call(request)
        except Exception as exc:  # a failed request is recorded, not fatal
            error = {"type": type(exc).__name__, "message": str(exc)[:300]}
        latency = time.perf_counter() - start
        if tracer:
            tracer.close(span)
        calibration.after(latency)
        entry = {"id": request["id"], "start": start, "latency": latency, "error": error}
        if error is None:
            entry["value"] = encode(request, result)
            if "argv" in request:
                bytes_out += len(result[1].encode())
        out.write(json.dumps(entry) + "\n")
        del result, entry
    return bytes_out


def peak_rss_kb() -> int:
    """Peak RSS of this process image.

    ru_maxrss survives exec on Linux, so it would report the parent's RSS
    at the fork when that is larger; VmHWM belongs to the new image only.
    """
    try:
        with open("/proc/self/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(argv):
    src, command = Path(argv[1]).resolve(), argv[2]
    if Path(geomax.__file__).resolve().parent != src / "geomax":
        print(f"geomax imported from {geomax.__file__}, not {src}", file=sys.stderr)
        return 2
    if command == "setup":
        print(json.dumps({"ready": READY, "cal": Calibration().times}))
        return 0
    requests = json.load(sys.stdin)
    tracer = None
    if len(argv) > 3:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install(geomax)
    calibration = Calibration()
    bytes_out = run(requests, sys.stdout, calibration, tracer)
    if tracer:
        tracer.uninstall()
        tracer.dump(argv[3])
    summary = {
        "ready": READY,
        "bytes_out": bytes_out,
        "cal": calibration.times,
        "peak_rss_kb": peak_rss_kb(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
