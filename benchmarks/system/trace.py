"""Outside-in span tracing for the system benchmark.

Timing wrappers are installed around *public* callables of each layer
(class methods and module-level functions), from this file only — the
program is not edited.  Every call records one span: name, start, end,
the span that caused it, and the id of the benchmark operation (batch
or query index) it served.  Spans stay in memory and are written out
once, at the end of the run.

A layer's **self time** is its spans' duration minus the part their
child spans cover, so shares add up to the traced time without double
counting.  Each wrapper costs about a microsecond, most of it outside
its own clocked window and therefore inside its parent's; the cost is
calibrated at install time and taken back out of the parent's self
time, and its total is reported as ``obs.trace_overhead_frac``.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

__all__ = ["Tracer", "LAYER_OF"]

#: span name -> layer (module path under ``src/repro/``).
LAYER_OF = {
    "ShardRouter.split_batch": "serving.router",
    "ShardRouter.split": "serving.router",
    "ShardedDatabase.ingest_batch": "serving.database",
    "ShardedDatabase.checkpoint_all": "lsm.checkpoint",
    "TimeSeriesDatabase.write": "lsm.database",
    "TimeSeriesDatabase.sync": "lsm.database",
    "TimeSeriesDatabase.snapshot": "lsm.database",
    "TimeSeriesDatabase.checkpoint_all": "lsm.checkpoint",
    "DelayAnalyzer.observe": "core.analyzer",
    "LsmEngine.ingest[pi_c]": "lsm.policies",
    "LsmEngine.ingest[pi_s]": "lsm.policies",
    "WriteAheadLog.append": "lsm.wal",
    "WriteAheadLog.sync": "lsm.wal",
    "AdmissionController.admit": "lsm.backpressure",
    "CompactionScheduler.run": "lsm.scheduler",
    "StorageKernel.snapshot": "lsm.snapshot",
    "FederatedExecutor.query_range": "serving.federation",
    "FederatedExecutor.query_aggregate": "serving.federation",
    "execute_range_query": "query.executor",
    "execute_aggregate_query": "query.aggregation",
    "merge_aggregates": "query.merge",
    "merge_range_stats": "query.merge",
    "recover_engine": "lsm.recovery",
    "LsmEngine.restore": "lsm.recovery",
    "read_checkpoint": "lsm.recovery",
    "read_wal": "lsm.recovery",
    "LsmEngine.verify": "lsm.recovery",
}


class Tracer:
    """Span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        #: ``(name, start, end, parent index, operation id)`` per span;
        #: a slot is ``None`` only while its call is still running.
        self.spans: list[tuple | None] = []
        self._stack: list[int] = []
        #: Spans are recorded only while this is set (measured phases).
        self.enabled = False
        #: Operation id stamped on new spans; the workload loop sets it.
        self.op = -1
        #: ``(phase name, first span index)`` in order of :meth:`phase`.
        self.phases: list[tuple[str, int]] = []
        #: ``StorageKernel.snapshot`` calls / calls returning the object
        #: the same engine returned last time (a snapshot-cache hit).
        self.snapshot_calls = 0
        self.snapshot_hits = 0
        self._last_snapshot: dict[int, object] = {}
        #: Seconds of bookkeeping per span, calibrated by :meth:`install`.
        self.span_cost_s = 0.0
        self._undo: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------------

    def phase(self, name: str) -> None:
        """Start a named phase; later spans belong to it."""
        self.phases.append((name, len(self.spans)))

    def _wrap(self, name, fn):
        """``fn`` timed as span ``name`` (a string, or ``f(self)``)."""
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        fixed = name if isinstance(name, str) else None

        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                label = fixed if fixed is not None else name(args[0])
                spans[index] = (label, start, end, parent, self.op)

        traced.__wrapped__ = fn
        return traced

    def _wrap_snapshot(self, fn):
        traced = self._wrap("StorageKernel.snapshot", fn)
        last = self._last_snapshot

        def snapshot(engine):
            result = traced(engine)
            if self.enabled:
                self.snapshot_calls += 1
                if last.get(id(engine)) is result:
                    self.snapshot_hits += 1
                last[id(engine)] = result
            return result

        return snapshot

    # -- installation ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _patch_method(self, cls, attr: str, name=None) -> None:
        label = name if name is not None else f"{cls.__name__}.{attr}"
        self._patch(cls, attr, self._wrap(label, cls.__dict__[attr]))

    def _patch_function(self, attr: str, home, *importers) -> None:
        """Wrap module function ``home.attr``; rebind it in every module
        that imported it by name, so those call sites are traced too."""
        wrapped = self._wrap(attr, getattr(home, attr))
        for module in (home, *importers):
            self._patch(module, attr, wrapped)

    def install(self) -> None:
        """Wrap every traced callable (see :data:`LAYER_OF`)."""
        from repro.core.analyzer import DelayAnalyzer
        from repro.lsm import checkpoint as checkpoint_mod
        from repro.lsm import recovery as recovery_mod
        from repro.lsm import wal as wal_mod
        from repro.lsm.backpressure import AdmissionController
        from repro.lsm.base import LsmEngine
        from repro.lsm.database import TimeSeriesDatabase
        from repro.lsm.policies.kernel import StorageKernel
        from repro.lsm.scheduler import CompactionScheduler
        from repro.query import aggregation as aggregation_mod
        from repro.query import executor as executor_mod
        from repro.query import merge as merge_mod
        from repro.serving import federation as federation_mod
        from repro.serving.database import ShardedDatabase
        from repro.serving.router import ShardRouter

        for cls, attrs in (
            (ShardRouter, ("split_batch", "split")),
            (ShardedDatabase, ("ingest_batch", "checkpoint_all")),
            (TimeSeriesDatabase, ("write", "sync", "snapshot", "checkpoint_all")),
            (DelayAnalyzer, ("observe",)),
            (wal_mod.WriteAheadLog, ("append", "sync")),
            (AdmissionController, ("admit",)),
            (CompactionScheduler, ("run",)),
            (federation_mod.FederatedExecutor, ("query_range", "query_aggregate")),
            (LsmEngine, ("verify",)),
        ):
            for attr in attrs:
                self._patch_method(cls, attr)
        self._patch_method(
            LsmEngine, "ingest",
            name=lambda engine: (
                "LsmEngine.ingest[pi_s]"
                if engine.policy_name == "pi_s"
                else "LsmEngine.ingest[pi_c]"
            ),
        )
        self._patch(
            StorageKernel, "snapshot",
            self._wrap_snapshot(StorageKernel.__dict__["snapshot"]),
        )
        restore = LsmEngine.__dict__["restore"].__func__
        self._patch(
            LsmEngine, "restore", classmethod(self._wrap("LsmEngine.restore", restore))
        )
        # serving/federation.py and query/merge.py bind the executors by
        # name at import; lsm/recovery.py binds read_wal the same way.
        self._patch_function("execute_range_query", executor_mod, merge_mod, federation_mod)
        self._patch_function(
            "execute_aggregate_query", aggregation_mod, merge_mod, federation_mod
        )
        self._patch_function("merge_aggregates", merge_mod, federation_mod)
        self._patch_function("merge_range_stats", merge_mod, federation_mod)
        self._patch_function("recover_engine", recovery_mod)
        self._patch_function("read_checkpoint", checkpoint_mod)
        self._patch_function("read_wal", wal_mod, recovery_mod)
        self.span_cost_s = self._calibrate()

    def uninstall(self) -> None:
        """Put every wrapped callable back."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _calibrate(self, calls: int = 20_000) -> float:
        """Bookkeeping seconds per span: wrapped no-op minus bare no-op."""

        def noop():
            return None

        probe = Tracer()
        probe.enabled = True
        wrapped = probe._wrap("noop", noop)
        clock = time.perf_counter
        best = []
        for fn in (noop, wrapped):
            times = []
            for _ in range(3):
                start = clock()
                for _ in range(calls):
                    fn()
                times.append(clock() - start)
                probe.spans.clear()
            best.append(min(times))
        return max(0.0, (best[1] - best[0]) / calls)

    # -- analysis --------------------------------------------------------------

    def _phase_bounds(self, phase: str) -> list[tuple[int, int]]:
        bounds = []
        for k, (name, first) in enumerate(self.phases):
            if name == phase:
                stop = self.phases[k + 1][1] if k + 1 < len(self.phases) else len(self.spans)
                bounds.append((first, stop))
        return bounds

    def summary(self, *phases: str) -> dict:
        """Per-name totals over the named phases.

        Returns ``{"names": {name: {calls, total_s, self_s}}, "root_s":
        seconds inside top-level spans, "spans": span count}``.  Self
        times have the calibrated wrapper cost of their direct children
        taken back out.
        """
        names: dict[str, dict] = defaultdict(
            lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
        )
        root_s = 0.0
        count = 0
        bounds = [b for phase in phases for b in self._phase_bounds(phase)]
        for first, stop in bounds:
            spans = self.spans[first:stop]
            child_s = [0.0] * len(spans)
            children = [0] * len(spans)
            for name, start, end, parent, _ in spans:
                if parent >= first:
                    child_s[parent - first] += end - start
                    children[parent - first] += 1
            for offset, (name, start, end, parent, _) in enumerate(spans):
                duration = end - start
                entry = names[name]
                entry["calls"] += 1
                entry["total_s"] += duration
                entry["self_s"] += max(
                    0.0,
                    duration - child_s[offset] - children[offset] * self.span_cost_s,
                )
                if parent < first:
                    root_s += duration
            count += len(spans)
        return {"names": dict(names), "root_s": root_s, "spans": count}

    def layer_metrics(
        self, busy_s: float, pi_c_points: int, pi_s_points: int, recover_s: float
    ) -> dict[str, float]:
        """The per-layer metrics that come from spans.

        ``*_frac`` is a layer's (or one callable's) self time over
        ``busy_s``, the seconds the measured ingest and query loops were
        busy; recovery shares are over ``recover_s``, the summed wall
        time of the timed recoveries.
        """
        main = self.summary("ingest", "query")
        names = main["names"]
        zero = {"calls": 0, "total_s": 0.0, "self_s": 0.0}

        def self_s(*span_names: str) -> float:
            return sum(names.get(n, zero)["self_s"] for n in span_names)

        def total_s(*span_names: str) -> float:
            return sum(names.get(n, zero)["total_s"] for n in span_names)

        def ratio(top: float, bottom: float) -> float:
            return top / bottom if bottom else 0.0

        pi_c, pi_s = "LsmEngine.ingest[pi_c]", "LsmEngine.ingest[pi_s]"
        engine_s = total_s(pi_c, pi_s)
        pi_c_ns = ratio(self_s(pi_c), pi_c_points) * 1e9
        pi_s_ns = ratio(self_s(pi_s), pi_s_points) * 1e9
        split = names.get("ShardRouter.split_batch", zero)
        out = {
            "serving.router.split_batch_us_per_call": ratio(split["self_s"], split["calls"]) * 1e6,
            "serving.database.ingest_self_frac": self_s("ShardedDatabase.ingest_batch") / busy_s,
            "serving.database.wrapper_ratio": ratio(
                total_s("ShardedDatabase.ingest_batch"), engine_s
            ),
            "lsm.database.write_self_frac": self_s("TimeSeriesDatabase.write") / busy_s,
            "lsm.database.wrapper_ratio": ratio(total_s("TimeSeriesDatabase.write"), engine_s),
            "core.analyzer.observe_frac": self_s("DelayAnalyzer.observe") / busy_s,
            "lsm.wal.append_frac": self_s("WriteAheadLog.append") / busy_s,
            "lsm.wal.sync_frac": self_s("WriteAheadLog.sync") / busy_s,
            "lsm.backpressure.admit_frac": self_s("AdmissionController.admit") / busy_s,
            "lsm.policies.ingest_frac": self_s(pi_c, pi_s) / busy_s,
            "lsm.policies.pi_c_ns_per_point": pi_c_ns,
            "lsm.policies.pi_s_ns_per_point": pi_s_ns,
            "lsm.policies.pi_s_over_pi_c": ratio(pi_s_ns, pi_c_ns),
            "lsm.scheduler.run_frac": self_s("CompactionScheduler.run") / busy_s,
            "serving.federation.self_frac": self_s(
                "FederatedExecutor.query_range", "FederatedExecutor.query_aggregate"
            ) / busy_s,
            "lsm.snapshot.build_frac": self_s("StorageKernel.snapshot") / busy_s,
            "lsm.snapshot.cache_hit_rate": ratio(self.snapshot_hits, self.snapshot_calls),
            "query.executor.scan_frac": self_s("execute_range_query") / busy_s,
            "query.aggregation.agg_frac": self_s("execute_aggregate_query") / busy_s,
            "query.merge.merge_frac": self_s("merge_aggregates", "merge_range_stats") / busy_s,
            "obs.layer_coverage_frac": main["root_s"] / busy_s,
            "obs.trace_overhead_frac": main["spans"] * self.span_cost_s / busy_s,
        }
        if recover_s:
            recovery = self.summary("recover")["names"]
            took = {n: recovery.get(n, zero) for n in LAYER_OF}
            out["lsm.recovery.restore_frac"] = took["LsmEngine.restore"]["total_s"] / recover_s
            out["lsm.recovery.replay_frac"] = (
                took["recover_engine"]["self_s"] + took["read_wal"]["total_s"]
            ) / recover_s
            out["lsm.recovery.verify_frac"] = took["LsmEngine.verify"]["total_s"] / recover_s
        return out

    def write(self, path: str) -> int:
        """Write every span as one JSON line; returns the span count."""
        starts = [first for _, first in self.phases]
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            k = -1
            for index, (name, start, end, parent, op) in enumerate(self.spans):
                while k + 1 < len(starts) and starts[k + 1] <= index:
                    k += 1
                handle.write(
                    json.dumps(
                        {
                            "id": index,
                            "name": name,
                            "layer": LAYER_OF[name],
                            "phase": self.phases[k][0] if k >= 0 else "",
                            "op": op,
                            "parent": parent,
                            "start_us": round((start - origin) * 1e6, 3),
                            "end_us": round((end - origin) * 1e6, 3),
                        }
                    )
                )
                handle.write("\n")
        return len(self.spans)
