"""Per-layer attribution: wrapper spans around public functions, self-time.

The benchmark times each layer from outside the program: :class:`Tracer`
swaps a timing wrapper in for each public function named in
:data:`TARGETS` for the length of one traced op, and puts the original
back afterwards, so untraced ops run the program untouched.  Wrapper spans
use ``time.time_ns()``, the timebase of the program's own
``ExecutionConfig(trace=True)`` spans, so both kinds merge into one
timeline per process (:meth:`Tracer.merge_trace`).

A span's *self time* is its duration minus the part its child spans
cover (:func:`self_times`); per-layer metrics are built from self times,
so nested layers are never counted twice.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import os
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Tuple

#: Timeline of the measuring process (the program's driver id, too).
DRIVER = -1

#: Root span of every traced op; its self time is the unattributed time.
OP = "bench.op"

#: (module, owner attribute or None, function attribute, span name).
TARGETS: List[Tuple[str, Optional[str], str, str]] = [
    ("repro.graph.io", None, "read_edge_list", "graph.read_edge_list"),
    ("repro.graph.csr", "CSRGraph", "from_graph", "graph.csr_build"),
    ("repro.graph.edits", "EditBatch", "validate_against", "graph.validate_batch"),
    ("repro.core.fast", "FastPropagator", "propagate", "core.fit"),
    # The rest of a local fit: the propagator's matrices become the
    # corrector's ArrayLabelState (reverse records built by argsort).
    ("repro.core.fast", "FastPropagator", "to_array_state", "core.fit.state_export"),
    ("repro.core.detector", "RSLPADetector", "update", "core.update"),
    # Bound in the detector's namespace, where postprocess() looks it up.
    ("repro.core.detector", None, "extract_communities", "core.extract"),
    # Runs in RSLPADetector.postprocess just before extract_communities
    # (a sibling span, not a child): the array state's dict export.
    ("repro.core.labels_array", "ArrayLabelState", "sequences_dict",
     "core.extract.sequences_dict"),
    ("repro.core.postprocess", None, "edge_weights", "core.extract.edge_weights"),
    ("repro.core.postprocess", None, "sweep_tau1", "core.extract.tau_sweep"),
    # Bound in tracking, where assign_stable_ids (MembershipIndex.update)
    # looks it up.
    ("repro.core.tracking", None, "match_covers", "core.tracking.match"),
    ("repro.service.ingest", "EditQueue", "offer", "service.queue_offer"),
    ("repro.service.durability", "CheckpointStore", "append_wal", "service.wal_append"),
    ("repro.service.durability", "CheckpointStore", "write_checkpoint",
     "service.checkpoint"),
    ("repro.service.index", "MembershipIndex", "update", "service.index_update"),
    ("repro.service.facade", "CommunityService", "communities_of", "service.query"),
]


def _count_update(counts, result) -> None:
    counts["core.update.touched_slots"] += result.touched_labels
    counts["core.update.value_changes"] += result.value_changes


def _count_edges(counts, result) -> None:
    counts["core.extract.edges_weighted"] += len(result)


def _count_communities(counts, result) -> None:
    counts["core.extract.communities"] += len(result.cover)


def _count_checkpoint(counts, result) -> None:
    counts["service.checkpoint_bytes"] += os.path.getsize(result)


#: Counts taken from a wrapped call's return value, at the same boundary.
COUNTERS: Dict[str, Callable] = {
    "core.update": _count_update,
    "core.extract.edge_weights": _count_edges,
    "core.extract": _count_communities,
    "service.checkpoint": _count_checkpoint,
}


class Tracer:
    """Spans ``(name, timeline, start_ns, dur_ns)`` plus counts, in memory."""

    def __init__(self):
        self.spans: List[Tuple[str, int, int, int]] = []
        self.counts: Dict[str, float] = defaultdict(float)

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        counter = COUNTERS.get(name)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.time_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                spans.append((name, DRIVER, start, time.time_ns() - start))
            if counter is not None:
                counter(counts, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def op(self):
        """One traced op: every wrapper installed, plus the op's root span.

        The originals are put back on exit, so untraced ops run the
        program untouched.
        """
        undo = []
        try:
            for module_name, owner_name, attr, name in TARGETS:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = vars(owner)[attr]
                if isinstance(original, classmethod):
                    wrapped = classmethod(self._wrap(name, original.__func__))
                else:
                    wrapped = self._wrap(name, original)
                setattr(owner, attr, wrapped)
                undo.append((owner, attr, original))
            start = time.time_ns()
            try:
                yield
            finally:
                self.spans.append((OP, DRIVER, start, time.time_ns() - start))
        finally:
            for owner, attr, original in reversed(undo):
                setattr(owner, attr, original)

    def add_span(self, name: str, timeline: int, start_ns: int, end_ns: int) -> None:
        self.spans.append((name, timeline, start_ns, end_ns - start_ns))

    def merge_trace(self, trace) -> None:
        """Fold the program's own spans (a ``repro.obs.TraceResult``) in."""
        for span in trace.spans:
            self.spans.append((span.name, span.worker, span.ts_ns, span.dur_ns))


def self_times(spans) -> List[Tuple[str, int, int, int]]:
    """``(name, timeline, dur_ns, self_ns)`` per span.

    Spans of one timeline come from one thread, so any two are nested or
    disjoint; a span's parent is the innermost span enclosing it.
    """
    by_timeline: Dict[int, list] = defaultdict(list)
    for span in spans:
        by_timeline[span[1]].append(span)
    out = []
    for timeline, group in by_timeline.items():
        group.sort(key=lambda s: (s[2], -s[3]))
        stack: List[list] = []  # [name, end, dur, child_ns]
        for name, _, start, dur in group:
            while stack and stack[-1][1] <= start:
                done = stack.pop()
                out.append((done[0], timeline, done[2], done[2] - done[3]))
            if stack:
                stack[-1][3] += dur
            stack.append([name, start + dur, dur, 0])
        for done in reversed(stack):
            out.append((done[0], timeline, done[2], done[2] - done[3]))
    return out


def aggregate(spans) -> Dict[Tuple[str, int], Dict[str, float]]:
    """Per (name, timeline): calls, total duration and total self time (ns)."""
    table: Dict[Tuple[str, int], Dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "dur_ns": 0, "self_ns": 0}
    )
    for name, timeline, dur, self_ns in self_times(spans):
        row = table[(name, timeline)]
        row["calls"] += 1
        row["dur_ns"] += dur
        row["self_ns"] += self_ns
    return table


#: Per-layer metrics that are a mean self time per call on the measuring
#: process's timeline: metric name -> (span name, nanoseconds per unit).
SELF_TIME_METRICS = {
    "graph.read_edge_list_ms": ("graph.read_edge_list", 1e6),
    "graph.csr_build_ms": ("graph.csr_build", 1e6),
    "graph.validate_batch_ms": ("graph.validate_batch", 1e6),
    "core.fit_ms": ("core.fit", 1e6),
    "core.fit.state_export_ms": ("core.fit.state_export", 1e6),
    "core.update_ms": ("core.update", 1e6),
    "core.extract_ms": ("core.extract", 1e6),
    "core.extract.sequences_dict_ms": ("core.extract.sequences_dict", 1e6),
    "core.extract.edge_weights_ms": ("core.extract.edge_weights", 1e6),
    "core.extract.tau_sweep_ms": ("core.extract.tau_sweep", 1e6),
    "core.tracking.match_ms": ("core.tracking.match", 1e6),
    "service.queue_offer_us": ("service.queue_offer", 1e3),
    "service.wal_append_ms": ("service.wal_append", 1e6),
    "service.checkpoint_ms": ("service.checkpoint", 1e6),
    "service.index_update_ms": ("service.index_update", 1e6),
    "service.query_us": ("service.query", 1e3),
}

#: Distributed-engine spans blocking the driver: self time per fit,
#: summed over the driver timeline.
DRIVER_ENGINE_METRICS = {
    "engine.route_ms": "engine.route",
    "engine.transport_send_ms": "engine.transport_send",
    "engine.barrier_wait_ms": "engine.barrier_wait",
}

#: Distributed-engine spans on the worker timelines: self time per fit,
#: averaged over workers.
WORKER_ENGINE_METRICS = {
    "engine.compute_ms": "engine.compute",
    "engine.pack_ms": "engine.pack",
}

#: Synthetic driver spans around a multiprocess fit: mean *duration* per fit.
PHASE_METRICS = {
    "distributed.startup_ms": "distributed.startup",
    "distributed.collect_ms": "distributed.collect",
}


def summarize(tracer: Tracer, fits: int = 0, workers: int = 0) -> Tuple[dict, dict]:
    """Per-layer metric values plus a base-count table for the artefact.

    Returns ``(metrics, table)``: ``metrics`` maps every per-layer metric
    name to its value (0 for a layer the workload never reached);
    ``table`` maps ``name@timeline`` to calls / total / self milliseconds,
    the base counts behind every mean.
    """
    table = aggregate(tracer.spans)
    counts = tracer.counts
    metrics: Dict[str, float] = {}

    def row(name, timeline=DRIVER):
        return table.get((name, timeline), {"calls": 0, "dur_ns": 0, "self_ns": 0})

    for metric, (span, scale) in SELF_TIME_METRICS.items():
        r = row(span)
        metrics[metric] = r["self_ns"] / r["calls"] / scale if r["calls"] else 0.0
    updates = row("core.update")["calls"]
    touched = counts["core.update.touched_slots"]
    metrics["core.update.touched_slots"] = touched / updates if updates else 0.0
    metrics["core.update.value_change_ratio"] = (
        counts["core.update.value_changes"] / touched if touched else 0.0
    )
    weightings = row("core.extract.edge_weights")["calls"]
    extractions = row("core.extract")["calls"]
    metrics["core.extract.edges_weighted"] = (
        counts["core.extract.edges_weighted"] / weightings if weightings else 0.0
    )
    metrics["core.extract.communities"] = (
        counts["core.extract.communities"] / extractions if extractions else 0.0
    )
    metrics["service.coalesce_ratio"] = counts["service.coalesce_ratio"]
    checkpoints = row("service.checkpoint")["calls"]
    metrics["service.checkpoint_mb"] = (
        counts["service.checkpoint_bytes"] / checkpoints / 1e6 if checkpoints else 0.0
    )
    for metric, span in DRIVER_ENGINE_METRICS.items():
        metrics[metric] = row(span)["self_ns"] / fits / 1e6 if fits else 0.0
    for metric, span in WORKER_ENGINE_METRICS.items():
        total = sum(row(span, w)["self_ns"] for w in range(workers))
        metrics[metric] = total / (fits * workers) / 1e6 if fits else 0.0
    for metric, span in PHASE_METRICS.items():
        metrics[metric] = row(span)["dur_ns"] / fits / 1e6 if fits else 0.0
    metrics["engine.messages"] = counts["engine.messages"] / fits if fits else 0.0
    metrics["engine.bytes"] = counts["engine.bytes"] / fits if fits else 0.0
    op = row(OP)
    metrics["obs.attributed_pct"] = (
        100.0 * (1.0 - op["self_ns"] / op["dur_ns"]) if op["dur_ns"] else 0.0
    )
    base = {
        f"{name}@{timeline}": {
            "calls": r["calls"],
            "total_ms": r["dur_ns"] / 1e6,
            "self_ms": r["self_ns"] / 1e6,
        }
        for (name, timeline), r in sorted(table.items())
    }
    return metrics, base
