"""Span tracer that wraps the library's layer boundaries from outside.

Installing the tracer replaces each traced function at the name its
callers look up (a module global such as `planner.enumerate_recovery_sets`,
or a class attribute such as `QueryPlanner.serve`) with a wrapper that
opens a span on entry and closes it on exit. Uninstalled, nothing is
wrapped, so untraced runs pay no cost.

A span has a name, a start, an end, a parent (the span open below it on
the stack) and the id of the operation it belongs to. Spans are folded
into per-name totals as they close rather than kept in a list: the
`search` workload opens several hundred thousand spans per round, and
every per-layer metric is a sum over spans. A span's self time is its
duration minus the durations of its child spans.
"""

from __future__ import annotations

import functools
from time import perf_counter

# Span names, in reporting order.
SPANS = (
    "cli.main",
    "report.build",
    "report.render",
    "bounds.evaluate",
    "profiler.profile",
    "profiler.lrc",
    "profiler.info_lrc",
    "planner.build",
    "planner.sweep",
    "planner.serve",
    "recovery.enumerate",
    "recovery.packing",
    "search.min_length",
    "gf2.min_distance",
)

COUNTERS = (
    "recovery.enumerate.sets",
    "recovery.enumerate.truncated",
    "recovery.enumerate.repeats",
    "recovery.packing.masks",
    "planner.serve.unservable",
    "planner.sweep.queries",
    "planner.cap_doublings",
    "search.candidates",
    "gf2.codewords",
)

# Enumerations the planner starts with this cap; a larger max_count
# means a failed plan search doubled it.
_PLANNER_FIRST_CAP = 64


class Tracer:
    """Collects span totals and work counters; the harness reads them
    once round 0 is done.

    `op` is the id of the operation in progress; spans are recorded only
    while it is set, so library calls made by the benchmark's own checks
    or set-up leave no trace.
    """

    def __init__(self, modules: dict):
        self._modules = modules
        self._patches: list[tuple[object, str, object]] = []
        self._index = {name: i for i, name in enumerate(SPANS)}
        self._serve = self._index["planner.serve"]
        self._sweep = self._index["planner.sweep"]
        self._search = self._index["search.min_length"]
        self.op: int | None = None
        n = len(SPANS)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.total_s = [0.0] * n
        self.counts = dict.fromkeys(COUNTERS, 0)
        self.sweep_in_search_s = 0.0
        self._stack: list[list] = []
        self._open = [0] * n
        self._keys: set = set()

    def begin_op(self, op_id: int) -> None:
        self.op = op_id
        self._stack = []
        self._open = [0] * len(SPANS)
        self._keys = set()

    def end_op(self) -> None:
        self.op = None

    # -- span bookkeeping -------------------------------------------------

    def _enter(self, sid: int) -> list:
        frame = [sid, 0.0, perf_counter()]
        self._stack.append(frame)
        self._open[sid] += 1
        return frame

    def _exit(self, frame: list) -> None:
        dur = perf_counter() - frame[2]
        sid = frame[0]
        stack = self._stack
        # An op interrupted by the guard may leave frames above this one.
        while stack and stack[-1] is not frame:
            self._open[stack.pop()[0]] -= 1
        if stack:
            stack.pop()
        self._open[sid] -= 1
        self.calls[sid] += 1
        self.total_s[sid] += dur
        self.self_s[sid] += dur - frame[1]
        if stack:
            parent = stack[-1]
            parent[1] += dur
            if sid == self._serve and parent[0] == self._sweep:
                self.counts["planner.sweep.queries"] += 1
        if sid == self._sweep and self._open[self._search]:
            self.sweep_in_search_s += dur

    def _wrap(self, fn, name: str, after=None):
        sid = self._index[name]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer.op is None:
                return fn(*args, **kwargs)
            frame = tracer._enter(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def _patch(self, owner, attr: str, name: str, after=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self._wrap(original, name, after))

    # -- counters taken from arguments and results -------------------------

    def _enumerated(self, from_planner: bool, args, kwargs, result) -> None:
        code, target = args[0], args[1]
        rest = dict(zip(("excluded", "max_size", "max_count"), args[2:]))
        rest.update(kwargs)
        max_count = rest.get("max_count")
        key = (
            code.column_words,
            target.length,
            target.word,
            frozenset(rest.get("excluded", ())),
            rest.get("max_size"),
            max_count,
        )
        c = self.counts
        if key in self._keys:
            c["recovery.enumerate.repeats"] += 1
        else:
            self._keys.add(key)
        c["recovery.enumerate.sets"] += len(result.sets)
        c["recovery.enumerate.truncated"] += int(result.truncated)
        if from_planner and max_count is not None and max_count > _PLANNER_FIRST_CAP:
            c["planner.cap_doublings"] += 1

    def _packed(self, args, kwargs, result) -> None:
        self.counts["recovery.packing.masks"] += len(args[0])

    def _served(self, args, kwargs, result) -> None:
        if result is None:
            self.counts["planner.serve.unservable"] += 1

    def _searched(self, args, kwargs, result) -> None:
        self.counts["search.candidates"] += result.nodes_explored

    def _distance(self, args, kwargs, result) -> None:
        # Computed, not observed: the Gray-code loop visits 2^k - 1
        # codewords unless it stops early at weight 1.
        self.counts["gf2.codewords"] += (1 << args[0].k) - 1

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        m = self._modules
        cli, report, profiler = m["cli"], m["report"], m["profiler"]
        planner, gf2 = m["planner"], m["gf2"]
        self._patch(cli, "main", "cli.main")
        self._patch(cli, "build_report", "report.build")
        self._patch(cli, "report_to_dict", "report.render")
        self._patch(cli, "search_to_dict", "report.render")
        self._patch(cli, "min_length", "search.min_length", self._searched)
        self._patch(report, "profile", "profiler.profile")
        self._patch(report, "evaluate_all", "bounds.evaluate")
        self._patch(profiler, "lrc_profile", "profiler.lrc")
        self._patch(profiler, "info_lrc_profile", "profiler.info_lrc")
        for module, from_planner in ((profiler, False), (planner, True)):
            self._patch(
                module,
                "enumerate_recovery_sets",
                "recovery.enumerate",
                functools.partial(self._enumerated, from_planner),
            )
            self._patch(module, "max_disjoint_packing", "recovery.packing", self._packed)
        qp = planner.QueryPlanner
        self._patch(qp, "__init__", "planner.build")
        self._patch(qp, "servable_all", "planner.sweep")
        self._patch(qp, "serve", "planner.serve", self._served)
        self._patch(gf2.LinearCode, "min_distance", "gf2.min_distance", self._distance)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Per-layer metrics as name -> (value, unit)."""
        i, c = self._index, self.counts
        out: dict[str, tuple[float, str]] = {}
        for span in ("recovery.enumerate", "recovery.packing", "planner.serve",
                     "planner.sweep", "gf2.min_distance"):
            out[f"{span}.calls"] = (self.calls[i[span]], "count")
        for span in ("recovery.enumerate", "recovery.packing", "planner.serve",
                     "planner.sweep", "profiler.profile", "profiler.lrc",
                     "profiler.info_lrc", "search.min_length", "gf2.min_distance",
                     "bounds.evaluate", "report.build", "report.render", "cli.main"):
            out[f"{span}.self_s"] = (self.self_s[i[span]], "s")
        for name in ("recovery.enumerate.sets", "recovery.enumerate.truncated",
                     "recovery.packing.masks", "planner.serve.unservable",
                     "planner.sweep.queries", "planner.cap_doublings",
                     "search.candidates", "gf2.codewords"):
            out[name] = (c[name], "count")
        out["planner.built"] = (self.calls[i["planner.build"]], "count")
        enum_calls = self.calls[i["recovery.enumerate"]]
        out["recovery.enumerate.repeat_frac"] = (
            c["recovery.enumerate.repeats"] / enum_calls if enum_calls else 0.0,
            "ratio",
        )
        search_s = self.total_s[i["search.min_length"]]
        out["search.candidates_per_s"] = (
            c["search.candidates"] / search_s if search_s else 0.0,
            "1/s",
        )
        out["search.sweep_frac"] = (
            self.sweep_in_search_s / search_s if search_s else 0.0,
            "s/s",
        )
        return out

    def self_times(self) -> dict[str, float]:
        return {name: self.self_s[k] for k, name in enumerate(SPANS)}
