"""Verdicts on worker results against the benchmark's own references.

A request fails when it raised, when the CLI exited non-zero, when a float
mean, second moment or variance is further from the reference than the
result's own error_bound, when an exact value differs from the reference,
when a Monte Carlo mean is more than MC_Z_LIMIT standard errors from the
exact mean, or when an output is malformed (wrong row count, an invalid
signature, a transcript that breaks the game's rule).

Every failure is recorded by kind. A failure that matches one of the seed
commit's defects in kind and in the requests it hits is marked known
(known_defect); any other failure makes the run's `correct` false.
"""

from __future__ import annotations

import csv
import io
import math
from fractions import Fraction

import reference

MC_Z_LIMIT = 5.0

#: Bound violations present at the seed commit: (request class, route)
#: pairs of the cliffs workload whose float error_bound is not a true bound.
KNOWN_BOUND_BREAKS = {
    ("fallback", "series"): "series error_bound 86x too small at (~60, 10^4)",
    ("large-s", "series"): "series error_bound ~97x too small at (4..6, 2*10^4)",
    ("large-n", "recursive"): "recursive error_bound up to 4.9x too small near n = 500",
}

#: The one grid face count whose series and recursive error_bound is too
#: small for some n (up to 1.1x).
KNOWN_GRID_BREAK_S = 37


def known_defect(request: dict, failure: dict) -> str | None:
    """The seed-commit defect behind a failure, or None for a new failure.

    A defect is known only for the kind of failure it causes and the
    requests it was seen on; the same kind anywhere else is new.
    """
    kind, cls = failure["kind"], request["cls"]
    if kind == "exception:OverflowError" and cls == "overflow":
        return "float moments convert C(n,k) to float and overflow past n ~ 1030"
    if kind == "bound":
        if (cls, failure["route"]) in KNOWN_BOUND_BREAKS:
            return KNOWN_BOUND_BREAKS[cls, failure["route"]]
        if (
            cls == "compute"
            and failure["route"] in ("series", "recursive")
            and request["s"] == KNOWN_GRID_BREAK_S
        ):
            return "series and recursive error_bound up to 1.1x too small at s = 37"
    if (
        kind == "exit:digits"
        and cls == "compute"
        and request["mode"] == "exact"
        and request["quantity"] in ("pmf", "cdf")
    ):
        return "exact CLI output above 4300 digits hits Python's int-to-str limit (exit 2)"
    return None


ROUTES = ("closed-alternating", "series", "recursive", "matrix-power")

#: Float pmf and cdf values are probabilities held to this absolute error.
#: The CLI claims 4 eps for them, which the alternating pmf and the
#: (1 - q**y)**n cdf exceed by small factors at the seed commit; that
#: claim is tracked as accuracy.point.* and is not a failure, since the
#: claimed-bound rule covers the moments only.
POINT_TOLERANCE = Fraction(1, 10**9)

MOMENT_QUANTITIES = {"mean": "mean", "variance": "variance", "second-moment": "second_moment"}


def decode_number(value):
    if isinstance(value, str):
        num, den = value.split("/")
        return Fraction(int(num, 16), int(den, 16))
    return value


def is_signature(sig) -> bool:
    """Removal values come in runs: a run of r copies of m leaves m - r dice."""
    remaining = len(sig)
    i = 0
    while remaining:
        run = 0
        while i + run < len(sig) and sig[i + run] == remaining:
            run += 1
        if run == 0:
            return False
        i += run
        remaining -= run
    return True


class Checker:
    """Checks results; references are computed once per (n, s) and point."""

    def __init__(self) -> None:
        self._moments: dict[tuple[int, int], reference.Moments] = {}
        self.accuracy: dict[str, list[float]] = {key: [] for key in (*ROUTES, "point")}
        self.mc_z: list[float] = []

    def moments(self, n: int, s: int) -> reference.Moments:
        key = (n, s)
        if key not in self._moments:
            self._moments[key] = reference.moments(n, s)
        return self._moments[key]

    def prepare(self, requests) -> None:
        """Compute every moment reference up front, outside the timed passes."""
        for request in requests:
            if "n" in request and "s" in request and request.get("quantity", "mean") in MOMENT_QUANTITIES:
                self.moments(request["n"], request["s"])

    # -- float moments ------------------------------------------------------

    def _bound(self, route, n, s, quantity, value, bound) -> dict | None:
        ref = self.moments(n, s)
        err = abs(Fraction(value) - getattr(ref, quantity))
        slack = Fraction(bound) + ref.err
        ratio = float(err / Fraction(bound)) if bound else (0.0 if err <= ref.err else math.inf)
        if route in self.accuracy:
            self.accuracy[route].append(ratio)
        if err > slack:
            return {"kind": "bound", "route": route, "quantity": quantity, "ratio": ratio}
        return None

    # -- per request kind ---------------------------------------------------

    def check(self, request, entry) -> list[dict]:
        """Failures of one request (an empty list when it passed)."""
        if entry["error"] is not None:
            return [{"kind": f"exception:{entry['error']['type']}", "message": entry["error"]["message"]}]
        value = entry["value"]
        if "argv" in request:
            if value["code"] != 0:
                digits = value["code"] == 2 and "integer string conversion" in value["stderr"]
                kind = "exit:digits" if digits else f"exit:{value['code']}"
                return [{"kind": kind, "code": value["code"], "stderr": value["stderr"][-200:]}]
            check = getattr(self, "_cli_" + request["cls"])
            return check(request, value["stdout"])
        return getattr(self, "_call_" + request["call"])(request, value)

    def _cli_compute(self, request, stdout) -> list[dict]:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != 1 or (int(rows[0]["n"]), int(rows[0]["s"])) != (request["n"], request["s"]):
            return [{"kind": "output", "detail": "expected one row for the requested pair"}]
        row = rows[0]
        n, s, quantity = request["n"], request["s"], request["quantity"]
        exact = request["mode"] == "exact"
        parse = Fraction if exact else float
        if quantity in MOMENT_QUANTITIES:
            if exact:
                ref = getattr(self.moments(n, s), MOMENT_QUANTITIES[quantity])
                if Fraction(row["value"]) != ref:
                    return [{"kind": "exact", "quantity": quantity}]
                return []
            failure = self._bound(
                row["method"], n, s, MOMENT_QUANTITIES[quantity],
                float(row["value"]), float(row["error_bound"]),
            )
            return [failure] if failure else []
        if quantity == "quantile":
            if int(row["value"]) != reference.quantile(n, s, request["prob"]):
                return [{"kind": "exact" if exact else "quantile", "quantity": quantity}]
            return []
        fn = reference.pmf if quantity == "pmf" else reference.cdf
        ref = fn(n, s, request["y"])
        got = parse(row["value"])
        if exact:
            return [] if got == ref else [{"kind": "exact", "quantity": quantity}]
        err = abs(Fraction(got) - ref)
        bound = Fraction(float(row["error_bound"]))
        self.accuracy["point"].append(float(err / bound) if bound else math.inf)
        if err > POINT_TOLERANCE:
            return [{"kind": "point", "quantity": quantity, "method": row["method"], "error": float(err)}]
        return []

    def _cli_compare(self, request, stdout) -> list[dict]:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        n_max, s_max = request["n_max"], request["s_max"]
        expected = sum(s_max - n + 1 for n in range(1, n_max + 1))
        if len(rows) != expected or any(row["status"] != "ok" for row in rows):
            return [{"kind": "output", "detail": "compare rows missing or not ok"}]
        return []

    def _cli_figures(self, request, stdout) -> list[dict]:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        if len(rows) != 5:
            return [{"kind": "output", "detail": "a figure panel has five points"}]
        quantity = "mean" if request["figure"] == "ev-bounds" else "variance"
        for row in rows:
            ref = float(getattr(self.moments(int(row["n"]), int(row["s"])), quantity))
            exact = float(row["exact"])
            if not math.isclose(exact, ref, rel_tol=1e-12):
                return [{"kind": "output", "detail": f"figure value {exact} != {ref}"}]
            if float(row["elementary_bound"]) < ref or float(row["improved_bound"]) < ref:
                return [{"kind": "output", "detail": "an upper bound lies below the exact value"}]
        return []

    def _cli_signatures(self, request, stdout) -> list[dict]:
        lines = stdout.split()
        n = request["n"]
        labels = lines[1:]
        sigs = [tuple(int(c) for c in (label.split("-") if n > 9 else label)) for label in labels]
        if (
            lines[:1] != ["signature"]
            or len(sigs) != 2 ** (n - 1)
            or len(set(sigs)) != len(sigs)
            or not all(len(sig) == n and is_signature(sig) for sig in sigs)
        ):
            return [{"kind": "output", "detail": "signature list wrong"}]
        return []

    def _call_moment_report(self, request, value) -> list[dict]:
        n, s = request["n"], request["s"]
        if request["mode"] == "exact":
            ref = self.moments(n, s)
            for quantity in ("mean", "second_moment", "variance"):
                if decode_number(value[quantity]) != getattr(ref, quantity):
                    return [{"kind": "exact", "quantity": quantity, "route": value["method"]}]
            return []
        failures = []
        for quantity in ("mean", "second_moment", "variance"):
            failure = self._bound(value["method"], n, s, quantity, value[quantity], value["error_bound"])
            if failure:
                failures.append(failure)
        # one failure per request: the quantity furthest outside its bound
        return [max(failures, key=lambda f: f["ratio"])] if failures else []

    def _mc(self, request, mean, std_error) -> list[dict]:
        exact = float(self.moments(request["n"], request["s"]).mean)
        z = abs(mean - exact) / std_error
        self.mc_z.append(z)
        return [{"kind": "mc", "z": z}] if z > MC_Z_LIMIT else []

    def _call_monte_carlo_moments(self, request, value) -> list[dict]:
        if value["trials"] != request["trials"]:
            return [{"kind": "output", "detail": "trial count"}]
        return self._mc(request, value["mean"], value["std_error_mean"])

    def _call_turn_count_histogram(self, request, hist) -> list[dict]:
        trials = sum(hist)
        if trials != request["trials"] or (hist and hist[0] != 0):
            return [{"kind": "output", "detail": "histogram total or support"}]
        mean = sum(y * c for y, c in enumerate(hist)) / trials
        m2 = sum(y * y * c for y, c in enumerate(hist)) / trials
        std_error = math.sqrt((m2 - mean * mean) * trials / (trials - 1) / trials)
        return self._mc(request, mean, std_error)

    def _call_signature_frequencies(self, request, pairs) -> list[dict]:
        n = request["n"]
        if sum(count for _, count in pairs) != request["trials"] or not all(
            len(sig) == n and is_signature(sig) for sig, _ in pairs
        ):
            return [{"kind": "output", "detail": "signature counts"}]
        return []

    def _call_play_game(self, request, game) -> list[dict]:
        alive = request["n"]
        signature = []
        for faces, removed in zip(game["turns"], game["removed_per_turn"]):
            if (
                len(faces) != alive
                or removed != faces.count(alive)
                or not all(1 <= face <= request["s"] for face in faces)
            ):
                return [{"kind": "output", "detail": "transcript breaks the rule"}]
            signature += [alive] * removed
            alive -= removed
        if alive or signature != game["signature"] or game["turn_count"] != len(game["turns"]):
            return [{"kind": "output", "detail": "transcript does not end the game"}]
        return []
