"""The measuring process: runs one workload and prints one JSON result line.

Started by ``perfbench/run.py`` in a fresh process per workload, with
``PYTHONPATH`` pointing at the checkout's ``src`` and the numpy thread
pools pinned to one thread.  Callers are closed-loop: one in-process
client that waits for each call to return, which is how the library is
used.  Every workload

* builds its input from the cached arrays (``inputs.py``) and times only
  what a user pays from generated input to ready to serve (``setup_s``,
  the median of ``SETUP_REPEATS`` set-ups, so it is never one sample);
* runs ``gc.collect()`` before each timed op so garbage of one op is not
  collected inside the next, after a ``gc.freeze()`` of the set-up heap so
  that collection costs O(new objects) and not O(graph);
* discards its first op (warm-up) and reports medians over the ops of a
  ``--seconds`` loop;
* times a fixed host-speed probe (``hostspeed.py``) before every timed op
  and set-up, and reports each gated timing scaled by the probe next to
  it, with the raw wall-time median printed on the line below;
* checks its outputs; a failed check makes the result ``correct: false``.

With ``--trace 1`` ops alternate between untraced and traced (the
wrappers of ``layers.py`` installed, and ``ExecutionConfig(trace=True)``
for the distributed fit); the traced ones give the per-layer metrics and
the two populations give the tracing overhead.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time
from contextlib import nullcontext
from time import perf_counter

import numpy as np

import hostspeed
import inputs
import layers

ITERATIONS = 60
SETUP_REPEATS = 3
#: Ingest: windows per checkpoint, and the window (service batch) size.
CHECKPOINT_EVERY = 40
WINDOW = 100
#: Queries issued after each ingest window / refresh op.
QUERIES = 100
#: Ingest: windows per host-speed probe (a probe costs about two windows).
PROBE_EVERY = 20


def p50(values):
    return statistics.median(values)


def p90(values):
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(0.9 * len(ordered)) - 1)]


def cover_digest(cover) -> str:
    canon = sorted(tuple(sorted(c)) for c in cover)
    return hashlib.sha256(repr(canon).encode()).hexdigest()


def reference_digest(graph, state, algo) -> str:
    """Digest of the cover that ``extract_communities`` gives for ``state``.

    The reference for every extraction the program runs: an optimised
    (incremental, array-native) extraction must give the same cover as
    this direct call on the same label state.  Never timed.
    """
    from repro.core.postprocess import extract_communities

    return cover_digest(
        extract_communities(graph, state.sequences_dict(), step=algo.tau_step).cover
    )


def build_graph(data):
    from repro.graph.adjacency import Graph

    edges = data["edges"].tolist()
    return Graph.from_edges(map(tuple, edges), vertices=range(data["n"]))


def validates(state, graph) -> bool:
    try:
        state.validate(graph)
    except AssertionError:
        return False
    return True


def same_slots(a, b) -> bool:
    """Slot-for-slot equality of two ``ArrayLabelState`` label matrices."""
    return all(
        np.array_equal(getattr(a, field), getattr(b, field))
        for field in ("labels", "srcs", "poss")
    )


def query_block(service, vertices):
    """Answers for ``vertices`` and the mean latency per query.

    One query takes about a microsecond, close to the timer's resolution
    and overhead, so a block of ``QUERIES`` is timed as a whole.
    """
    started = perf_counter()
    answers = [service.communities_of(vertex) for vertex in vertices]
    return answers, (perf_counter() - started) / len(vertices)


class Loop:
    """Decides traced/untraced per op and when the timed loop is over."""

    def __init__(self, seconds: float, trace: bool):
        self.seconds = seconds
        self.trace = trace
        self.tracer = layers.Tracer() if trace else None
        self.probe = hostspeed.HostProbe()
        self.start = None
        self.index = 0

    def running(self) -> bool:
        """True until ``seconds`` have passed (and, when tracing, until
        at least one untraced and one traced op have run)."""
        if self.start is None:
            self.start = perf_counter()
        if self.trace and self.index < 2:
            return True
        return perf_counter() - self.start < self.seconds

    def next_traced(self) -> bool:
        """Whether the next op is traced (every other one in trace mode)."""
        traced = self.trace and self.index % 2 == 1
        self.index += 1
        return traced

    def context(self, traced: bool):
        return self.tracer.op() if traced else nullcontext()


# ----------------------------------------------------------------------
# static: read an edge list, fit, extract (the paper's static path)
# ----------------------------------------------------------------------
def run_static(data, seed, loop: Loop, result):
    from repro.api import AlgoConfig, detect
    from repro.graph import io as graph_io

    algo = AlgoConfig(seed=seed, iterations=ITERATIONS)
    path = data["edge_list"]
    digests = set()

    def op():
        started = perf_counter()
        graph = graph_io.read_edge_list(path)
        loaded = perf_counter()
        detection = detect(graph, algo)
        done = perf_counter()
        digests.add(cover_digest(detection.cover))
        return done - started, loaded - started, graph, detection

    setups = loop.probe.series()  # also the warm-up: a set-up is a cold op
    for _ in range(1 if loop.trace else SETUP_REPEATS):
        gc.collect()
        loop.probe.sample()
        setups.add(op()[0])
        result.attempted += 1
    gc.freeze()
    samples = {False: [], True: []}
    ops, detects = loop.probe.series(), loop.probe.series()
    loads = []
    graph = detection = None
    while loop.running():
        traced = loop.next_traced()
        gc.collect()
        loop.probe.sample()
        with loop.context(traced):
            wall, load, graph, detection = op()
        samples[traced].append(wall)
        if not traced:
            ops.add(wall)
            detects.add(wall - load)
            loads.append(load)
        result.attempted += 1
    result.rss()
    result.check("static: every op returns the same cover", len(digests) == 1)
    result.check("static: the cover equals extract_communities on the fitted state",
                 digests == {reference_digest(graph, detection.state, algo)})
    result.check("static: the final state validates", validates(detection.state, graph))
    result.timing("setup_s", setups, "s", "read_edge_list + detect, cold")
    result.timing("op_p50_ms", ops, "ms", "detect_p50_ms")
    # read_edge_list allocates the whole graph anew, and under host load its
    # time grew about twice as much as the probe's, so the gated part of the
    # op is the detect call; the load step is printed.
    result.timing("aux_p50_ms", detects, "ms", "detect call alone (op minus read_edge_list)")
    result.info("read_edge_list_ms", 1e3 * p50(loads), "ms", len(loads))
    result.note(f"graph n={graph.num_vertices} m={graph.num_edges}, "
                f"communities={len(detection.cover)}, cover digest {next(iter(digests))[:12]}")
    return samples


# ----------------------------------------------------------------------
# ingest: single-edit trace through submit in 100-edit windows, durable
# ----------------------------------------------------------------------
def run_ingest(data, seed, loop: Loop, result, workdir):
    from repro.api import AlgoConfig, ServicePlanConfig
    from repro.service import CommunityService

    inserts = data["edit_insert"].tolist()
    pairs = data["edit_uv"].tolist()
    trace = [("+" if ins else "-", u, v) for ins, (u, v) in zip(inserts, pairs)]
    windows_in_trace = len(trace) // WINDOW
    config = ServicePlanConfig(
        algo=AlgoConfig(seed=seed, iterations=ITERATIONS),
        batch_size=WINDOW,
        # Longer than the whole replay: no extraction lands in the timed
        # loop, so this workload measures the write path only.
        staleness_batches=windows_in_trace + 1,
        checkpoint_every=CHECKPOINT_EVERY,
    )
    setups = loop.probe.series()
    service = None
    for attempt in range(1 if loop.trace else SETUP_REPEATS):
        if service is not None:
            service.close()
            service = None
        gc.collect()
        ckpt_dir = os.path.join(workdir, f"ckpt-{attempt}")
        loop.probe.sample()
        started = perf_counter()
        service = CommunityService(build_graph(data), config, checkpoint_dir=ckpt_dir).start()
        setups.add(perf_counter() - started)
        result.attempted += 1
    gc.freeze()
    rng = np.random.default_rng(seed)
    n = data["n"]
    updates = {False: [], True: []}
    flushes, queries = loop.probe.series(), loop.probe.series()
    submit_time = 0.0
    edits_timed = 0
    position = 0

    def window(traced):
        """One 100-edit window then one query block; returns the timings."""
        nonlocal position
        if position // WINDOW % PROBE_EVERY == 0:
            loop.probe.sample()
        gc.collect()
        window_time = 0.0
        flush_latency = None
        with loop.context(traced):
            for op, u, v in trace[position:position + WINDOW]:
                started = perf_counter()
                report = service.submit(op, u, v)
                elapsed = perf_counter() - started
                window_time += elapsed
                if report is not None:
                    flush_latency = elapsed
        position += WINDOW
        result.attempted += 1
        if flush_latency is None:
            result.failed += 1
        with loop.context(traced):
            _, per_query = query_block(service, rng.integers(0, n, QUERIES).tolist())
        return window_time, flush_latency, per_query

    window(False)  # warm-up, discarded
    blocks = 0
    # Whole blocks of CHECKPOINT_EVERY consecutive windows only: each holds
    # exactly one checkpoint, so edits_per_s never depends on where the
    # clock ran out.  Traced/untraced alternate per block, so both sides
    # get checkpoints.
    while position + CHECKPOINT_EVERY * WINDOW <= len(trace) and loop.running():
        traced = loop.next_traced()
        for _ in range(CHECKPOINT_EVERY):
            window_time, flush_latency, per_query = window(traced)
            if flush_latency is None:
                continue
            updates[traced].append(flush_latency)
            if not traced:
                flushes.add(flush_latency)
                queries.add(per_query)
                submit_time += window_time
                edits_timed += WINDOW
        blocks += 1
    if loop.tracer is not None:
        loop.tracer.counts["service.coalesce_ratio"] = service.queue.coalesce_ratio
    result.rss()
    live = service.detector.array_state
    result.check("ingest: the final state validates against the final graph",
                 validates(live, service.detector.graph))
    service.close()
    recovered = CommunityService.recover(os.path.join(workdir, f"ckpt-{len(setups) - 1}"), config)
    result.check(
        "ingest: recover() matches the live label matrices",
        same_slots(recovered.detector.array_state, live)
        and recovered.batches_applied == service.batches_applied,
    )
    result.check("ingest: no extraction in the timed loop", service.extractions == 1)
    result.timing("setup_s", setups, "s", "graph + fit + extract + index + checkpoint")
    result.timing("op_p50_ms", flushes, "ms", "update_p50_ms")
    result.info("edits_per_s", edits_timed / submit_time, "1/s", blocks)
    result.info("update_p90_ms", 1e3 * p90(flushes.wall), "ms", len(flushes))
    result.timing("aux_p50_ms", queries, "ms", "query_p50_us / 1000, per-query mean of each block")
    result.note(f"{blocks} timed blocks of {CHECKPOINT_EVERY} windows, "
                f"{service.batches_applied} batches applied")
    return updates


# ----------------------------------------------------------------------
# refresh: one 100-edit batch, then a query that must see it
# ----------------------------------------------------------------------
def run_refresh(data, seed, loop: Loop, result):
    from repro.api import AlgoConfig, ServicePlanConfig
    from repro.graph.edits import EditBatch
    from repro.service import CommunityService

    rows = data["batch_rows"]
    batches = []
    for index in range(int(rows[:, 0].max()) + 1):
        chunk = rows[rows[:, 0] == index]
        batches.append(EditBatch.build(
            insertions=[(u, v) for _, ins, u, v in chunk.tolist() if ins],
            deletions=[(u, v) for _, ins, u, v in chunk.tolist() if not ins],
        ))
    config = ServicePlanConfig(
        algo=AlgoConfig(seed=inputs.REFRESH_BASE_SEED, iterations=ITERATIONS),
        batch_size=WINDOW,
        staleness_batches=1,
    )
    setups = loop.probe.series()
    service = None
    for _ in range(1 if loop.trace else SETUP_REPEATS):
        service = None
        gc.collect()
        loop.probe.sample()
        started = perf_counter()
        service = CommunityService(build_graph(data), config).start()
        setups.add(perf_counter() - started)
        result.attempted += 1
    gc.freeze()
    rng = np.random.default_rng(seed)
    n = data["n"]
    samples = {False: [], True: []}
    ops, queries = loop.probe.series(), loop.probe.series(scale_by="after")
    stale = 0
    for index, batch in enumerate(batches):
        if index and not loop.running():
            break
        traced = loop.next_traced() if index else False
        probed = min(next(iter(batch.insertions or batch.deletions)))
        gc.collect()
        loop.probe.sample()
        with loop.context(traced):
            started = perf_counter()
            service.apply(batch)
            answer = service.communities_of(probed)
            elapsed = perf_counter() - started
        result.attempted += 1
        if index:
            samples[traced].append(elapsed)
            if not traced:
                ops.add(elapsed)
        vertices = [probed] + rng.integers(0, n, QUERIES).tolist()
        answers, per_query = query_block(service, vertices[1:])
        answers.insert(0, answer)
        queries.add(per_query)
        fresh = service.detector.communities()
        for vertex, got in zip(vertices, answers):
            expected = {frozenset(c) for c in fresh if vertex in c}
            if {service.index.members(cid) for cid in got} != expected:
                stale += 1
        if service.batches_since_extract:
            stale += 1
    loop.probe.sample()  # the probe after the last query block
    result.rss()
    result.check("refresh: every probe answer sees the freshly indexed cover", stale == 0)
    detector = service.detector
    result.check(
        "refresh: the served cover equals extract_communities on the final state",
        cover_digest(detector.communities())
        == reference_digest(detector.graph, detector.array_state, config.algo),
    )
    result.timing("setup_s", setups, "s", "graph + fit + extract + index")
    result.timing("op_p50_ms", ops, "ms", "refresh_p50_ms")
    result.timing("aux_p50_ms", queries, "ms",
                  "query p50 on a fresh index, per-query mean of each block")
    return samples


# ----------------------------------------------------------------------
# distributed: 2-worker multiprocess shm fit vs the local fit
# ----------------------------------------------------------------------
def run_distributed(data, seed, loop: Loop, result):
    from repro.api import AlgoConfig, ExecutionConfig
    from repro.api import run_distributed as fit_distributed
    from repro.core.detector import RSLPADetector

    workers = 2
    algo = AlgoConfig(seed=seed, iterations=ITERATIONS)
    mp = ExecutionConfig(num_workers=workers, multiprocess=True, transport="shm")
    mp_traced = ExecutionConfig(
        num_workers=workers, multiprocess=True, transport="shm", trace=True
    )
    setups = loop.probe.series()
    graph = None
    for _ in range(1 if loop.trace else SETUP_REPEATS):
        graph = None
        gc.collect()
        loop.probe.sample()
        started = perf_counter()
        graph = build_graph(data)
        setups.add(perf_counter() - started)
    reference = fit_distributed(graph, algo, ExecutionConfig(num_workers=workers))
    gc.freeze()
    fits = {False: [], True: []}
    mp_fits, local_fits = loop.probe.series(scale_by="run"), loop.probe.series()
    mismatches = 0
    traced_fits = 0
    first = True
    while first or loop.running():
        traced = loop.next_traced() if not first else False
        gc.collect()
        loop.probe.sample()
        with loop.context(traced):
            called = time.time_ns()
            started = perf_counter()
            distributed = fit_distributed(graph, algo, mp_traced if traced else mp)
            elapsed = perf_counter() - started
            returned = time.time_ns()
        result.attempted += 1
        if traced:
            traced_fits += 1
            record_fit(loop.tracer, distributed, called, returned)
        gc.collect()
        loop.probe.sample()
        with loop.context(traced):
            started = perf_counter()
            local = RSLPADetector(graph, algo=algo).fit()
            local_elapsed = perf_counter() - started
        result.attempted += 1
        if not first:
            fits[traced].append(elapsed)
            if not traced:
                mp_fits.add(elapsed)
                local_fits.add(local_elapsed)
        if not (same_slots(distributed.state, local.array_state)
                and distributed.comm_stats.per_superstep
                == reference.comm_stats.per_superstep):
            mismatches += 1
        first = False
    result.rss()
    result.check(
        "distributed: multiprocess state == local fit, CommStats == in-process run",
        mismatches == 0,
    )
    result.timing("setup_s", setups, "s", "graph build")
    result.timing("op_p50_ms", mp_fits, "ms", "fit_p50_ms (mp-2 shm)")
    result.timing("aux_p50_ms", local_fits, "ms", "local_fit_p50_ms")
    result.fits, result.workers = traced_fits, workers
    return fits


def record_fit(tracer, distributed, called_ns, returned_ns) -> None:
    """Merge a traced fit's engine spans and add its startup/collect phases.

    Startup runs from the call to the first superstep (the driver's first
    ``engine.route``); collect from the driver's last engine span to the
    return.  Both are measured at the call boundary, from outside.
    """
    trace = distributed.trace
    tracer.merge_trace(trace)
    driver = [s for s in trace.spans if s.worker == layers.DRIVER]
    first_step = min(s.ts_ns for s in driver if s.superstep >= 1)
    last_end = max(s.ts_ns + s.dur_ns for s in driver)
    tracer.add_span("distributed.startup", layers.DRIVER, called_ns, first_step)
    tracer.add_span("distributed.collect", layers.DRIVER, last_end, returned_ns)
    tracer.counts["engine.messages"] += distributed.comm_stats.total_messages
    tracer.counts["engine.bytes"] += distributed.comm_stats.total_bytes


class Result:
    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.checks = []
        self.metrics = {}
        self.lines = []
        self.fits = 0
        self.workers = 0

    def check(self, name, ok) -> None:
        self.checks.append((name, bool(ok)))

    def metric(self, name, value, unit, meaning, samples=None) -> None:
        self.metrics[name] = {"value": float(value), "unit": unit}
        count = f" (n={samples})" if samples is not None else ""
        self.lines.append(f"{self.workload:<12} {name:<17} {value:>14.6g} {unit:<4} {meaning}{count}")

    def timing(self, name, series, unit, meaning) -> None:
        """A gated timing: the p50 of ``series`` scaled to the reference host.

        The p50 of the wall times is printed on the line below it.
        """
        factor = {"s": 1.0, "ms": 1e3}[unit]
        self.metric(name, factor * p50(series.scaled()), unit, meaning + ", host-scaled", len(series))
        self.info(f"{name} wall", factor * p50(series.wall), unit, len(series))

    def info(self, name, value, unit, samples) -> None:
        """A printed figure that is not one of the benchmark's gated metrics."""
        self.lines.append(f"{self.workload:<12} {name:<17} {value:>14.6g} {unit:<4} (n={samples}, not gated)")

    def rss(self) -> None:
        """Record peak RSS now: after the timed loop, before the checks."""
        self.metric("peak_rss_mb", peak_rss_mb(), "MB", "driver + largest worker")

    def note(self, text) -> None:
        self.lines.append(f"{self.workload:<12} note: {text}")


def peak_rss_mb() -> float:
    """This process's peak RSS plus the largest child's (ru_maxrss is KiB)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


RUNNERS = {
    "static": run_static,
    "ingest": run_ingest,
    "refresh": run_refresh,
    "distributed": run_distributed,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(RUNNERS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--artefact", required=True)
    args = parser.parse_args()

    data = inputs.load(args.workload, args.seed)
    loop = Loop(args.seconds, bool(args.trace))
    result = Result(args.workload)
    runner = RUNNERS[args.workload]
    extra = (args.workdir,) if args.workload == "ingest" else ()
    samples = runner(data, args.seed, loop, result, *extra)
    error_rate = result.failed / result.attempted
    result.lines.append(
        f"{args.workload:<12} {'error_rate':<17} {error_rate:>14.6g} {'':<4} "
        f"failed {result.failed} of {result.attempted} ops"
    )
    result.lines.append(
        f"{args.workload:<12} {'host_probe_ms':<17} {loop.probe.median_ms():>14.6g} ms   "
        f"(n={len(loop.probe.samples)}, in-run spread {loop.probe.spread():.1%}; "
        f"timings are scaled to a {hostspeed.REFERENCE_MS:g} ms probe)"
    )
    for name, ok in result.checks:
        result.lines.append(f"{args.workload:<12} check {'ok  ' if ok else 'FAIL'} {name}")
    payload = {
        "correct": all(ok for _, ok in result.checks),
        "attempted": result.attempted,
        "failed": result.failed,
        "lines": result.lines,
    }
    if args.trace:
        layer_metrics, base = layers.summarize(loop.tracer, result.fits, result.workers)
        untraced, traced = samples[False], samples[True]
        layer_metrics["obs.trace_overhead_pct"] = (
            100.0 * (p50(traced) / p50(untraced) - 1.0) if traced and untraced else 0.0
        )
        payload["metrics"] = {
            name: {"value": value, "unit": layer_unit(name)}
            for name, value in layer_metrics.items()
        }
        artefact = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "machine": machine(),
            "ops": {"untraced": len(untraced), "traced": len(traced)},
            "metrics": payload["metrics"],
            "spans": base,
            "counts": dict(loop.tracer.counts),
            "end_to_end": result.metrics,
        }
        os.makedirs(os.path.dirname(args.artefact), exist_ok=True)
        with open(args.artefact, "w", encoding="utf-8") as handle:
            json.dump(artefact, handle, indent=2, sort_keys=True)
        for name, value in layer_metrics.items():
            result.lines.append(f"{args.workload:<12} {name:<34} {value:>14.6g} {layer_unit(name)}")
        payload["lines"] = result.lines
    else:
        payload["metrics"] = result.metrics
    print(json.dumps(payload))
    return 0


def layer_unit(name: str) -> str:
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_mb", "MB"), ("_pct", "%")):
        if name.endswith(suffix):
            return unit
    return "ratio" if name.endswith("ratio") else "count"


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "platform": platform.platform(),
    }


if __name__ == "__main__":
    sys.exit(main())
