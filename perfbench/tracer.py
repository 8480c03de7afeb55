"""Function-level tracing of the geomax package, from outside it.

Tracer.install wraps every function a geomax module defines (and the
methods of the classes it defines) in every geomax namespace that refers
to it, so the `binomial` that `moments` imported is caught as well as
`kernels.binomial`. Names are looked up at install time: a function that
a refactor renamed or removed simply records no calls.

Two kinds of wrapper:

* span wrappers record (name, parent span, request, start, end) in memory;
  a span's name is "<defining module>.<qualname>";
* count wrappers, for the hot kernels in COUNTED, only bump a counter on
  the innermost open span, so their time stays in the caller's self time.

Spans are kept in a list and written out once, after the timed work.
Self time is a span's duration minus the time its child spans cover.
aggregate() turns one pass's spans into per-layer sums and with_ratios()
derives the ratio metrics from the sums of several passes.
"""

from __future__ import annotations

import functools
import importlib
import json
import pkgutil
import time
import types
from collections import Counter, defaultdict

#: Layers timed and counted; params only holds types and is not wrapped.
LAYERS = ("cli", "report", "moments", "chain", "kernels", "simulate", "bounds")

#: Hot kernels that are counted, never spanned.
COUNTED = (
    "kernels.binomial",
    "kernels._pascal_row",
    "kernels.CompensatedAccumulator.add",
    "kernels.tail_bound_max_geom",
    "kernels.tail_bound_weighted_max_geom",
)

#: Root span the benchmark opens around each request.
REQUEST = "bench.request"

NAME, PARENT, REQ, START, END, COUNTS, NOTE = range(7)


def _arg(args, kwargs, index, name, default=None):
    if name in kwargs:
        return kwargs[name]
    if len(args) > index:
        return args[index]
    return default


def _note_moment_report(args, kwargs, result, counts):
    # route is None when the call raised
    return {"method": _arg(args, kwargs, 2, "method", "auto"), "route": getattr(result, "method", None)}


def _note_cdf_profile(args, kwargs, result, counts):
    params = _arg(args, kwargs, 0, "params")
    return {"n": params.n, "steps": _arg(args, kwargs, 1, "t_max")}


def _note_moments_by_power(args, kwargs, result, counts):
    params = _arg(args, kwargs, 0, "params")
    # one tail-bound check per step plus the final one that stops the loop
    steps = max(0, counts.get("kernels.tail_bound_max_geom", 0) - 1)
    return {"n": params.n, "steps": steps}


def _note_transition_matrix(args, kwargs, result, counts):
    return {"n": _arg(args, kwargs, 0, "params").n}


def _note_play_chunk(args, kwargs, result, counts):
    return {"games": int(_arg(args, kwargs, 1, "count")), "turns": int(result[0].sum())}


def _note_play_game(args, kwargs, result, counts):
    return {"games": 1, "turns": int(result.turn_count)}


#: Span annotations read from arguments and results; a signature change
#: that breaks one only drops the note.
NOTES = {
    "report.moment_report": _note_moment_report,
    "chain.absorption_cdf_profile": _note_cdf_profile,
    "chain.moments_by_power": _note_moments_by_power,
    "chain.build_transition_matrix": _note_transition_matrix,
    "simulate._play_chunk": _note_play_chunk,
    "simulate.play_game": _note_play_game,
}


class Tracer:
    """Span and counter recorder for one process."""

    def __init__(self, clock=time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.request = -1
        self.totals: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, parent, self.request, self.clock(), None, None, None])
        self.stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.spans[index][END] = self.clock()
        self.stack.pop()

    def count(self, name: str, amount: int = 1) -> None:
        self.totals[name] += amount
        if self.stack:
            span = self.spans[self.stack[-1]]
            if span[COUNTS] is None:
                span[COUNTS] = {}
            span[COUNTS][name] = span[COUNTS].get(name, 0) + amount

    def begin_request(self, request_id: int) -> int:
        self.request = request_id
        return self.open(REQUEST)

    # -- wrapping ----------------------------------------------------------

    def _span_wrapper(self, name: str, fn):
        note = NOTES.get(name)
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                tracer.close(index)
                if note is not None:
                    span = tracer.spans[index]
                    try:
                        span[NOTE] = note(args, kwargs, result, span[COUNTS] or {})
                    except (AttributeError, IndexError, KeyError, TypeError, ValueError):
                        pass

        return wrapper

    def _count_wrapper(self, name: str, fn):
        tracer = self
        cache_info = getattr(fn, "cache_info", None)
        if cache_info is None:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                tracer.count(name)
                return fn(*args, **kwargs)

            return wrapper

        # an lru_cache'd row builder: a miss builds rows 0..n from scratch
        @functools.wraps(fn)
        def cached_wrapper(*args, **kwargs):
            misses = cache_info().misses
            result = fn(*args, **kwargs)
            if cache_info().misses != misses:
                rows = len(result)
                tracer.count("kernels.pascal_rows_built")
                tracer.count("kernels.pascal_cells", rows * (rows + 1) // 2)
            tracer.count(name)
            return result

        return cached_wrapper

    def _wrap(self, name: str, fn):
        if name in COUNTED:
            return self._count_wrapper(name, fn)
        return self._span_wrapper(name, fn)

    def install(self, package: types.ModuleType) -> int:
        """Wrap the package's functions; returns how many were wrapped."""
        modules = {"": package}
        for info in pkgutil.iter_modules(package.__path__):
            modules[info.name] = importlib.import_module(f"{package.__name__}.{info.name}")
        prefix = package.__name__ + "."
        layer_modules = {prefix + layer for layer in LAYERS}
        wrappers: dict[int, object] = {}
        for module in modules.values():
            for attr, value in list(vars(module).items()):
                home = getattr(value, "__module__", None)
                if home not in layer_modules or attr.startswith("__"):
                    continue
                if isinstance(value, type):
                    if value.__module__ == module.__name__:
                        self._wrap_class(home[len(prefix):], value)
                    continue
                if not (isinstance(value, types.FunctionType) or hasattr(value, "cache_info")):
                    continue
                if id(value) not in wrappers:
                    name = f"{home[len(prefix):]}.{value.__qualname__}"
                    wrappers[id(value)] = self._wrap(name, value)
                self._undo.append((module, attr, value))
                setattr(module, attr, wrappers[id(value)])
        return len(wrappers)

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, value in list(vars(cls).items()):
            if attr.startswith("__") or not isinstance(value, types.FunctionType):
                continue
            self._undo.append((cls, attr, value))
            setattr(cls, attr, self._wrap(f"{layer}.{value.__qualname__}", value))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    # -- output ------------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "totals": dict(self.totals)}, fh)


def load(path) -> tuple[list[list], Counter]:
    with open(path) as fh:
        data = json.load(fh)
    return data["spans"], Counter(data["totals"])


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for index, span in enumerate(spans):
        start, end = span[START], span[END]
        covered = 0.0
        reach = start
        for lo, hi in sorted(children.get(index, ())):
            lo, hi = max(lo, reach), min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append((end - start) - covered)
    return out


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _outermost_in_layer(spans: list[list], index: int) -> int:
    layer = _layer(spans[index][NAME])
    while spans[index][PARENT] >= 0 and _layer(spans[spans[index][PARENT]][NAME]) == layer:
        index = spans[index][PARENT]
    return index


def aggregate(spans: list[list], totals: Counter) -> dict[str, float]:
    """Per-layer sums of one traced pass (cli.bytes_out is added by the caller).

    Sums of passes add up; with_ratios() then derives the ratio metrics.
    """
    own = self_times(spans)
    m: dict[str, float] = defaultdict(float)
    for index, span in enumerate(spans):
        name = span[NAME]
        layer = _layer(name)
        if layer not in LAYERS:
            continue
        function = name.rsplit(".", 1)[-1]
        m[f"{layer}.calls"] += 1
        m[f"{layer}.self_s"] += own[index]
        note = span[NOTE] or {}
        counts = span[COUNTS] or {}
        if layer == "moments":
            if "series" in function:
                m["moments.series_s"] += own[index]
                m["moments.series_terms"] += counts.get("kernels.CompensatedAccumulator.add", 0)
            else:
                m["moments.closed_s"] += own[index]
        elif layer == "chain":
            route = spans[_outermost_in_layer(spans, index)][NAME]
            if "recursive" in route:
                m["chain.recursive_s"] += own[index]
            elif "power" in route or "absorption" in route:
                m["chain.power_s"] += own[index]
            if "n" in note:
                size = note["n"] + 1
                if "steps" in note:
                    m["chain.power_steps"] += note["steps"]
                    m["chain.matrix_entries"] += note["steps"] * size * size
                else:
                    m["chain.matrix_entries"] += size * (size + 1) // 2
        elif layer == "report" and "route" in note:
            if note["method"] == "auto":
                m["report.auto_calls"] += 1
                m["report.auto_closed"] += note["route"] == "closed-alternating"
                m["report.fallbacks"] += note["route"] == "series"
        elif layer == "simulate":
            m["simulate.games"] += note.get("games", 0)
            m["simulate.game_turns"] += note.get("turns", 0)
            m["simulate.chunks"] += function == "_play_chunk"
            if _outermost_in_layer(spans, index) == index:
                m["simulate.busy_s"] += span[END] - span[START]
    m["kernels.binomial_calls"] = totals.get("kernels.binomial", 0)
    m["kernels.pascal_rows_built"] = totals.get("kernels.pascal_rows_built", 0)
    m["kernels.pascal_cells"] = totals.get("kernels.pascal_cells", 0)
    m["kernels.accumulator_adds"] = totals.get("kernels.CompensatedAccumulator.add", 0)
    m["kernels.tail_bound_calls"] = sum(
        count for name, count in totals.items() if name.startswith("kernels.tail_bound")
    )
    return dict(m)


def with_ratios(sums: dict[str, float]) -> dict[str, float]:
    """The ratio metrics of summed aggregate() results, in place of their parts."""
    m = dict(sums)
    auto_calls = m.pop("report.auto_calls", 0)
    auto_closed = m.pop("report.auto_closed", 0)
    busy = m.pop("simulate.busy_s", 0.0)
    m["report.closed_useful_ratio"] = auto_closed / auto_calls if auto_calls else 0.0
    m["simulate.games_per_s"] = m.get("simulate.games", 0) / busy if busy else 0.0
    m["simulate.turns_per_s"] = m.get("simulate.game_turns", 0) / busy if busy else 0.0
    return m
