"""Outside-in timing wrappers for the traced benchmark run.

:func:`install` replaces public calls at each layer boundary with wrappers
that time them into a :class:`SpanRecorder`; nothing under ``src/`` is
edited.  A span has a name, start and end (``time.perf_counter``, which is
one system-wide monotonic clock on Linux, so worker and parent spans share
a timeline), its parent span, the process id and the unit of work it ran
in.  Calls made once per kernel loop iteration (stream claims, policy-bank
draws, controller hooks, traffic updates) would create hundreds of
thousands of spans per campaign, so they are kept as per-parent aggregates
(calls, total and self time) instead of one record each.

A layer's self time is its span's duration minus the time its child spans
cover.  Spans recorded inside a unit of work (``execute_batch`` /
``execute_task``) are emitted into ``repro.telemetry.current()`` when the
unit ends; the executor ships that collector's records back from pool
workers, so worker-side spans reach the parent under ``jobs > 1`` too.
"""

from __future__ import annotations

import functools
import itertools
import os
import time
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Telemetry record type carrying the spans of one unit of work.
RECORD_TYPE = "perfbench-spans"

#: Executor phases (``Telemetry`` spans) that partition
#: ``CampaignExecutor.run``.
EXECUTOR_PHASES = ("plan", "journal-lookup", "cache-lookup", "group",
                   "dispatch", "execute")


class SpanRecorder:
    """In-memory spans and per-parent call aggregates of one process."""

    def __init__(self) -> None:
        self.spans: List[Dict[str, Any]] = []
        #: ``(parent id, name) -> [calls, total_s, self_s]``.
        self.totals: Dict[Tuple[Optional[int], str], List[float]] = {}
        self.unit: Optional[str] = None
        self._stack: List[List[Any]] = []  # [child seconds, span id]
        self._ids = itertools.count(1)

    def call(self, name: str, aggregate: bool, fn: Callable, args: tuple,
             kwargs: dict, attrs: Optional[Dict[str, Any]] = None) -> Any:
        parent = self._stack[-1][1] if self._stack else None
        frame = [0.0, None if aggregate else next(self._ids)]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][0] += duration
            self_s = duration - frame[0]
            if aggregate:
                entry = self.totals.setdefault((parent, name), [0, 0.0, 0.0])
                entry[0] += 1
                entry[1] += duration
                entry[2] += self_s
            else:
                span = {"name": name, "id": frame[1], "parent": parent,
                        "start": start, "end": end, "self_s": self_s,
                        "pid": os.getpid(), "unit": self.unit}
                if attrs:
                    span.update(attrs)
                self.spans.append(span)

    def take_totals(self) -> List[Dict[str, Any]]:
        """Drain the aggregates as records."""
        pid = os.getpid()
        records = [{"name": name, "parent": parent, "calls": int(calls),
                    "total_s": total, "self_s": self_s, "pid": pid,
                    "unit": self.unit}
                   for (parent, name), (calls, total, self_s)
                   in self.totals.items()]
        self.totals = {}
        return records


def _wrap(recorder: SpanRecorder, name: str, fn: Callable,
          aggregate: bool) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, aggregate, fn, args, kwargs)
    return wrapper


def _unit_wrapper(recorder: SpanRecorder, fn: Callable,
                  cells: Callable[[Any], int]) -> Callable:
    """Time one unit of work and ship the spans it recorded."""
    from repro import telemetry

    counter = itertools.count()

    @functools.wraps(fn)
    def wrapper(work, *args, **kwargs):
        mark = len(recorder.spans)
        outer_totals, recorder.totals = recorder.totals, {}
        outer_unit = recorder.unit
        recorder.unit = f"{os.getpid()}:{next(counter)}"
        try:
            return recorder.call("campaign.unit", False, fn,
                                 (work,) + args, kwargs,
                                 {"cells": cells(work)})
        finally:
            spans = recorder.spans[mark:]
            del recorder.spans[mark:]
            totals = recorder.take_totals()
            recorder.totals, recorder.unit = outer_totals, outer_unit
            telemetry.current().emit({"type": RECORD_TYPE, "spans": spans,
                                      "totals": totals})
    return wrapper


def _subclasses(module, base) -> Iterable[type]:
    return [obj for obj in vars(module).values()
            if isinstance(obj, type) and issubclass(obj, base)]


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced layer boundary for the rest of the process."""
    from repro.core import batched as core_batched
    from repro.experiments.campaign import executor, specs
    from repro.experiments.campaign.cache import ResultCache
    from repro.experiments.campaign.journal import CampaignJournal
    from repro.mac import batched as mac_batched
    from repro.sim.batched import BatchedSlottedSimulator, CellStreams
    from repro.sim.conflict import BatchedConflictSimulator
    from repro.topology.graph import ConnectivityGraph
    from repro.traffic import BatchedArrivals

    # (owner, attribute, span name, aggregate)
    targets: List[Tuple[Any, str, str, bool]] = [
        (executor.CampaignExecutor, "run", "campaign.run", False),
        (ResultCache, "store", "campaign.cache_store", False),
        (CampaignJournal, "record", "campaign.journal_record", False),
        (specs.TopologySpec, "build", "topology.build", False),
        (ConnectivityGraph, "sensing_matrix", "topology.sensing_matrix",
         False),
        (BatchedSlottedSimulator, "run", "sim.batched.run", False),
        (BatchedConflictSimulator, "run", "sim.conflict.run", False),
        (CellStreams, "claim", "sim.streams", True),
        (CellStreams, "gather", "sim.streams", True),
    ]
    for method in ("__init__", "advance", "has_frame", "next_min",
                   "pop_success", "pop_discard", "flush",
                   "reset_measurement"):
        targets.append((BatchedArrivals, method, "traffic.arrivals", True))
    for cls in _subclasses(mac_batched, mac_batched.BatchedPolicyBank):
        for method, name in (("initial_draw", "mac.batched.draw"),
                             ("success_draw", "mac.batched.draw"),
                             ("failure_draw", "mac.batched.draw"),
                             ("observe_transmission", "mac.batched.observe"),
                             ("observe_station_transmissions",
                              "mac.batched.observe")):
            if method in vars(cls):
                targets.append((cls, method, name, True))
    for cls in _subclasses(core_batched, core_batched.BatchedControllerBank):
        for method in ("on_packet_received", "on_tick"):
            if method in vars(cls):
                targets.append((cls, method, "core.batched.controller", True))

    for owner, attr, name, aggregate in targets:
        setattr(owner, attr, _wrap(recorder, name, vars(owner)[attr],
                                   aggregate))
    for attr, cells in (("execute_batch", len), ("execute_task", lambda _: 1)):
        setattr(executor, attr, _unit_wrapper(recorder,
                                              getattr(executor, attr), cells))


# ----------------------------------------------------------------------
# Reduction of one traced campaign to per-layer metrics
# ----------------------------------------------------------------------
def _interval_union(intervals: Iterable[Tuple[float, float]]) -> float:
    covered, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            covered += end - max(start, reach)
            reach = end
    return covered


def _ratio(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return scale * numerator / denominator if denominator else 0.0


def layer_metrics(records: List[Dict[str, Any]], local_spans: List[Dict],
                  campaign_s: float) -> Dict[str, float]:
    """Per-layer times and counts of one traced ``CampaignExecutor.run``.

    ``records`` are the executor's telemetry records (phase spans, task
    records, backend counters and the unit span batches); ``local_spans``
    are the spans the parent process recorded outside any unit.
    """
    spans = list(local_spans)
    totals: List[Dict[str, Any]] = []
    counters: Dict[str, Dict[str, float]] = {}
    phases_s = 0.0
    queue_wait: Dict[Tuple, float] = {}
    for record in records:
        kind = record.get("type")
        if kind == RECORD_TYPE:
            spans.extend(record["spans"])
            totals.extend(record["totals"])
        elif kind == "counters" and record["scope"] in ("batched",
                                                        "conflict"):
            scope = counters.setdefault(record["scope"], {})
            for name, value in record["counters"].items():
                scope[name] = scope.get(name, 0) + value
        elif kind == "span" and record["name"] in EXECUTOR_PHASES:
            phases_s += record["dur"]
        elif kind == "task" and record.get("source") == "run":
            unit = (record.get("group"), record.get("worker_pid"),
                    record.get("queue_wait_s"))
            queue_wait[unit] = record.get("queue_wait_s") or 0.0

    def span_sum(name: str, self_time: bool = False) -> float:
        return sum(s["self_s"] if self_time else s["end"] - s["start"]
                   for s in spans if s["name"] == name)

    def total_sum(name: str, field: str) -> float:
        return sum(t[field] for t in totals if t["name"] == name)

    units = [s for s in spans if s["name"] == "campaign.unit"]
    cells = sum(s["cells"] for s in units)
    metrics: Dict[str, float] = {
        "campaign.units": len(units),
        "campaign.cells_per_unit": _ratio(cells, len(units)),
        "campaign.queue_wait_s": sum(queue_wait.values()),
        "campaign.self_s": campaign_s - _interval_union(
            (s["start"], s["end"]) for s in units),
        "campaign.cache_store_s": span_sum("campaign.cache_store"),
        "campaign.journal_record_s": span_sum("campaign.journal_record"),
        "topology.build_s": (span_sum("topology.build")
                             + span_sum("topology.sensing_matrix")),
        "topology.builds": sum(1 for s in spans
                               if s["name"] == "topology.build"),
        "sim.streams_s": total_sum("sim.streams", "total_s"),
        "sim.streams_calls": total_sum("sim.streams", "calls"),
        "mac.batched.draw_s": total_sum("mac.batched.draw", "total_s"),
        "mac.batched.draw_calls": total_sum("mac.batched.draw", "calls"),
        "mac.batched.observe_s": total_sum("mac.batched.observe", "total_s"),
        "core.batched.controller_s": total_sum("core.batched.controller",
                                               "total_s"),
        "core.batched.controller_calls": total_sum("core.batched.controller",
                                                   "calls"),
        "traffic.arrivals_s": total_sum("traffic.arrivals", "total_s"),
        "traffic.arrivals_calls": total_sum("traffic.arrivals", "calls"),
        "trace.unattributed_frac": _ratio(campaign_s - phases_s, campaign_s),
    }

    batched = counters.get("batched", {})
    run_s = span_sum("sim.batched.run")
    iterations = batched.get("loop_iterations", 0)
    busy = batched.get("busy_slots", 0)
    metrics.update({
        "sim.batched.run_s": run_s,
        "sim.batched.loop_iterations": iterations,
        "sim.batched.busy_slots": busy,
        "sim.batched.idle_fast_forwards": batched.get("idle_fast_forwards", 0),
        "sim.batched.retry_discards": batched.get("retry_discards", 0),
        "sim.batched.us_per_iteration": _ratio(run_s, iterations, 1e6),
        "sim.batched.ns_per_busy_slot": _ratio(run_s, busy, 1e9),
        "sim.batched.busy_slots_per_iteration": _ratio(busy, iterations),
        "sim.batched.self_s": span_sum("sim.batched.run", self_time=True),
    })

    conflict = counters.get("conflict", {})
    run_s = span_sum("sim.conflict.run")
    iterations = conflict.get("loop_iterations", 0)
    starts = conflict.get("frame_starts", 0)
    metrics.update({
        "sim.conflict.run_s": run_s,
        "sim.conflict.loop_iterations": iterations,
        "sim.conflict.frame_starts": starts,
        "sim.conflict.frame_ends": conflict.get("frame_ends", 0),
        "sim.conflict.sense_recomputes": conflict.get("sense_recomputes", 0),
        "sim.conflict.sense_product_ops": conflict.get("sense_product_ops", 0),
        "sim.conflict.retry_discards": conflict.get("retry_discards", 0),
        "sim.conflict.us_per_iteration": _ratio(run_s, iterations, 1e6),
        "sim.conflict.ns_per_frame_start": _ratio(run_s, starts, 1e9),
        "sim.conflict.frame_starts_per_iteration": _ratio(starts, iterations),
        "sim.conflict.self_s": span_sum("sim.conflict.run", self_time=True),
    })
    return metrics


#: Per-layer metrics that count work: a deterministic campaign repeats them
#: exactly, so they double as a check that tracing left the work unchanged.
WORK_COUNTERS = (
    "campaign.units", "topology.builds", "sim.streams_calls",
    "mac.batched.draw_calls", "core.batched.controller_calls",
    "traffic.arrivals_calls",
    "sim.batched.loop_iterations", "sim.batched.busy_slots",
    "sim.batched.idle_fast_forwards", "sim.batched.retry_discards",
    "sim.conflict.loop_iterations", "sim.conflict.frame_starts",
    "sim.conflict.frame_ends", "sim.conflict.sense_recomputes",
    "sim.conflict.sense_product_ops", "sim.conflict.retry_discards",
)
