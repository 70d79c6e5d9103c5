"""High-level distributed runs: one-call wrappers over the BSP engines.

These functions mirror the sequential APIs but execute on the simulated
cluster, returning both the result and the :class:`CommStats` needed by the
communication-cost experiments:

* :func:`run_distributed_rslpa` — Algorithm 1, 2 supersteps/iteration,
  ``O(|V|)`` messages per iteration;
* :func:`run_distributed_slpa` — the baseline, 1 superstep/iteration,
  ``O(|E|)`` messages per iteration;
* :func:`run_distributed_update` — Algorithm 2 over workers, ``O(η)``
  messages total;
* :func:`run_distributed_postprocess` — weights + τ2 locally per worker,
  τ1 sweep on the driver, communities via distributed hash-to-min CC.

Every wrapper runs on the one substrate: :func:`build_csr_shards` (any
vertex-id layout) and the columnar
:class:`~repro.distributed.engine_array.ArrayBSPEngine`.  Execution
selection is centralised: the per-call keywords (``num_workers`` /
``state_format`` / ``partitioner``) are shims that build an
:class:`~repro.api.config.ExecutionConfig` (pass ``config=`` to supply one
directly — it takes precedence), and every ``auto`` is negotiated by
:func:`repro.api.plan.resolve_plan`.  Worker programs and named
partitioners come from :mod:`repro.api.registry`, so plugged-in components
resolve exactly like the built-ins.  ``config.multiprocess=True`` runs the
propagation wrappers on real OS processes
(:class:`~repro.distributed.multiprocess.MultiprocessBSPEngine`) with
bit-identical results and stats; ``config.transport`` picks the data
plane those processes exchange supersteps over (``auto`` resolves to the
zero-copy shared-memory rings).
"""

from __future__ import annotations

from dataclasses import replace
from functools import partial
from typing import Dict, List, Optional, Set, Tuple, Union

import numpy as np

from repro.api.config import ExecutionConfig
from repro.api.plan import GraphCaps, RunPlan, resolve_plan
from repro.api.registry import PROGRAMS
from repro.core.communities import Cover
from repro.core.labels import NO_SOURCE, LabelState
from repro.core.labels_array import ArrayLabelState
from repro.core.postprocess import edge_weights, sweep_tau1, weak_threshold
from repro.distributed.components import distributed_connected_components
from repro.distributed.engine_array import ArrayBSPEngine
from repro.distributed.metrics import CommStats
from repro.distributed.worker import build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.edits import EditBatch, apply_batch
from repro.graph.partition import Partitioner

__all__ = [
    "run_distributed_rslpa",
    "run_distributed_slpa",
    "run_distributed_update",
    "run_distributed_postprocess",
]


def _execution_config(
    config: Optional[ExecutionConfig],
    num_workers: int,
    partitioner: Optional[Union[str, Partitioner]],
    state_format: str = "auto",
) -> ExecutionConfig:
    """The keyword shim: kwargs become a config unless one was passed.

    A passed config takes precedence over the per-axis keywords; these
    wrappers are always distributed, so a config that left ``num_workers``
    at its local default of 0 inherits the wrapper's worker count.
    """
    if config is not None:
        if config.num_workers == 0:
            config = replace(config, num_workers=num_workers)
        return config
    return ExecutionConfig(
        num_workers=num_workers,
        partitioner=partitioner,
        state_format=state_format,
    )


def _obs_for(plan: RunPlan):
    """A fresh observability context when the plan traces, else ``None``."""
    if not plan.trace:
        return None
    from repro.obs import Obs

    return Obs()


def _attach_obs(bsp, plan: RunPlan) -> None:
    """Wire tracing onto an in-process engine when the plan asks for it.

    The engine records its spans through ``bsp.obs``; parking the same
    context on ``bsp.stats.obs`` is what lets the result objects (and the
    service) surface the trace without any signature changes.  The
    multiprocess engine takes ``obs=`` at construction instead.
    """
    obs = _obs_for(plan)
    if obs is None:
        return
    obs.meta.setdefault("mode", "in-process")
    obs.meta.setdefault("num_workers", plan.num_workers)
    bsp.obs = obs
    bsp.stats.obs = obs


def _merge_array_rslpa_state(collected, iterations: int) -> LabelState:
    """Fully-recorded :class:`LabelState` from the workers' collect() matrices.

    ``collected`` holds one ``(local_ids, labels, srcs, poss)`` tuple per
    worker (:meth:`FastRSLPAPropagationProgram.collect`), in-process or
    shipped back from worker processes.  Sequence dicts come from one
    ``tolist`` per matrix, and the reverse records from one ``nonzero`` +
    ``lexsort`` group-split over all recorded slots instead of a per-slot
    Python loop.  Works for any vertex-id layout.
    """
    state = LabelState()
    ids_parts, srcs_parts, poss_parts = [], [], []
    for local_ids, labels, srcs, poss in collected:
        if len(local_ids) == 0:
            continue
        ids_parts.append(local_ids)
        srcs_parts.append(srcs)
        poss_parts.append(poss)
        vids = local_ids.tolist()
        state.labels.update(zip(vids, labels.T.tolist()))
        state.srcs.update(zip(vids, srcs.T.tolist()))
        state.poss.update(zip(vids, poss.T.tolist()))
        state.epochs.update((v, [0] * (iterations + 1)) for v in vids)
        state.receivers.update((v, {}) for v in vids)
    if ids_parts:
        ids = np.concatenate(ids_parts)
        srcs_m = np.concatenate(srcs_parts, axis=1)[1:, :]
        poss_m = np.concatenate(poss_parts, axis=1)[1:, :]
        t_idx, v_idx = np.nonzero(srcs_m != NO_SOURCE)
        if len(t_idx):
            src = srcs_m[t_idx, v_idx]
            pos = poss_m[t_idx, v_idx]
            order = np.lexsort((t_idx, v_idx, pos, src))
            src_s, pos_s = src[order], pos[order]
            new_group = np.empty(len(order), dtype=bool)
            new_group[0] = True
            new_group[1:] = (src_s[1:] != src_s[:-1]) | (pos_s[1:] != pos_s[:-1])
            starts = np.flatnonzero(new_group).tolist()
            starts.append(len(order))
            src_l, pos_l = src_s.tolist(), pos_s.tolist()
            pairs = list(
                zip(ids[v_idx[order]].tolist(), (t_idx[order] + 1).tolist())
            )
            for a, b in zip(starts, starts[1:]):
                state.receivers[src_l[a]][pos_l[a]] = set(pairs[a:b])
    state.set_num_iterations(iterations)
    return state


def _assemble_array_rslpa_state(collected, iterations: int) -> ArrayLabelState:
    """:class:`ArrayLabelState` straight from the workers' collect() matrices.

    The native export: per-worker ``(T+1, n_local)`` matrices scatter into
    global matrices by vertex id and the reverse records come from the
    state's vectorised ``reindex`` — no per-vertex Python at all.
    Requires contiguous vertex ids ``0..n-1`` (the array-state contract,
    enforced by :func:`~repro.api.plan.resolve_plan`).
    """
    n = sum(len(local_ids) for local_ids, *_ in collected)
    shape = (iterations + 1, n)
    labels = np.empty(shape, dtype=np.int64)
    srcs = np.empty(shape, dtype=np.int64)
    poss = np.empty(shape, dtype=np.int64)
    for local_ids, w_labels, w_srcs, w_poss in collected:
        labels[:, local_ids] = w_labels
        srcs[:, local_ids] = w_srcs
        poss[:, local_ids] = w_poss
    return ArrayLabelState.from_matrices(labels, srcs, poss)


def _run_propagation(plan: RunPlan, graph, program_cls, seed, iterations):
    """Run a propagation program in-process or on OS processes.

    Returns ``(collected, stats)``: one ``collect()`` result per worker,
    in worker order, plus the run's :class:`CommStats`.
    """
    part = plan.build_partitioner()
    shards = build_csr_shards(graph, part)
    if not plan.multiprocess:
        bsp = ArrayBSPEngine(shards, part)
        _attach_obs(bsp, plan)
        programs = [
            program_cls(shard, seed=seed, iterations=iterations)
            for shard in shards
        ]
        bsp.run(programs)
        return [program.collect() for program in programs], bsp.stats

    from repro.distributed.multiprocess import MultiprocessBSPEngine

    fault_kwargs = {}
    if plan.fault_tolerance:
        # resolve_plan already made both knobs concrete for fault-tolerant
        # plans; the engine defaults only back-stop direct construction.
        fault_kwargs = dict(
            fault_tolerance=True,
            checkpoint_interval=plan.checkpoint_interval,
            max_restarts=plan.max_restarts,
        )
    with MultiprocessBSPEngine(
        shards,
        part,
        partial(program_cls, seed=seed, iterations=iterations),
        transport=plan.transport,
        obs=_obs_for(plan),
        **fault_kwargs,
    ) as engine:
        engine.run()
        collected = engine.collect()
    return collected, engine.stats


def run_distributed_rslpa(
    graph: Graph,
    seed: int = 0,
    iterations: int = 200,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    state_format: str = "dict",
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Union[LabelState, ArrayLabelState], CommStats]:
    """Algorithm 1 on the simulated cluster; returns (state, comm stats).

    The returned state is fully recorded (provenance + reverse records) and
    bit-identical to a sequential :class:`ReferencePropagator` run for any
    vertex-id layout (``graph`` may also be a :class:`~repro.graph.csr.CSRGraph`), in-process
    or on real OS processes (``config.multiprocess``), with identical
    per-superstep stats either way.  ``state_format="array"`` returns an
    :class:`~repro.core.labels_array.ArrayLabelState` (contiguous ids
    required), assembled without any per-vertex Python — what the fast
    incremental lifecycle consumes.  All ``auto`` negotiation happens in
    :func:`repro.api.plan.resolve_plan`; ``config=`` supplies the
    :class:`~repro.api.config.ExecutionConfig` directly and overrides the
    per-axis keywords.
    """
    cfg = _execution_config(config, num_workers, partitioner, state_format)
    plan = resolve_plan(GraphCaps.of(graph), cfg)
    collected, stats = _run_propagation(
        plan, graph, PROGRAMS.resolve("rslpa"), seed, iterations
    )
    if plan.state_format == "array":
        return _assemble_array_rslpa_state(collected, iterations), stats
    return _merge_array_rslpa_state(collected, iterations), stats


def run_distributed_slpa(
    graph: Graph,
    seed: int = 0,
    iterations: int = 100,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Dict[int, List[int]], CommStats]:
    """The SLPA baseline on the simulated cluster; returns (memories, stats)."""
    cfg = _execution_config(config, num_workers, partitioner)
    plan = resolve_plan(GraphCaps.of(graph), cfg)
    collected, stats = _run_propagation(
        plan, graph, PROGRAMS.resolve("slpa"), seed, iterations
    )
    memories: Dict[int, List[int]] = {}
    for worker_memories in collected:
        memories.update(worker_memories)
    return memories, stats


def run_distributed_update(
    graph: Graph,
    state: LabelState,
    batch: EditBatch,
    seed: int = 0,
    batch_epoch: int = 1,
    num_workers: int = 4,
    partitioner: Optional[Union[str, Partitioner]] = None,
    config: Optional[ExecutionConfig] = None,
) -> Tuple[Graph, LabelState, CommStats]:
    """Algorithm 2 on the simulated cluster.

    Takes the *pre-batch* graph and label state; returns the updated graph,
    the repaired state (same object, mutated), and communication stats.
    ``batch_epoch`` must count batches the same way the sequential
    :class:`CorrectionPropagator` does for the randomness to line up.  The
    plan is resolved against the *post-batch* capabilities, so a request
    the batch would invalidate fails before mutating anything.  The
    correction program's cascade is sparse (``O(eta)`` messages), so it
    stays a scalar program run through the engine's tuple adapter.
    """
    cfg = _execution_config(config, num_workers, partitioner)
    if cfg.multiprocess:
        raise ValueError(
            "run_distributed_update repairs the caller's state in place; "
            "multiprocess workers cannot share it (use the in-process engine)"
        )
    batch.validate_against(graph)
    # Resolve against the POST-batch graph: apply_batch edits the caller's
    # graph (and the loop below pads the caller's state) in place, so a
    # plan the batch would invalidate must fail before mutating anything.
    post_ids = set(graph.vertices()) | set(batch.touched_vertices())
    post_contiguous = not post_ids or (
        min(post_ids) >= 0 and max(post_ids) + 1 == len(post_ids)
    )
    caps = GraphCaps(
        num_vertices=len(post_ids),
        num_edges=graph.num_edges,
        contiguous_ids=post_contiguous,
    )
    plan = resolve_plan(caps, cfg)
    new_graph = apply_batch(graph, batch)
    added = batch.added_neighbors()
    removed = batch.removed_neighbors()
    for v in set(added) | set(removed):
        if not state.has_vertex(v):
            state.init_vertex(v)
            for _ in range(state.num_iterations):
                state.labels[v].append(v)
                state.srcs[v].append(NO_SOURCE)
                state.poss[v].append(NO_SOURCE)
                state.epochs[v].append(0)

    part = plan.build_partitioner()
    shards = build_csr_shards(new_graph, part)
    program_cls = PROGRAMS.resolve("correction")
    programs = []
    for shard in shards:
        local = shard.vertices
        programs.append(
            program_cls(
                shard,
                seed=seed,
                iterations=state.num_iterations,
                labels={v: state.labels[v] for v in local},
                srcs={v: state.srcs[v] for v in local},
                poss={v: state.poss[v] for v in local},
                epochs={v: state.epochs[v] for v in local},
                receivers={v: state.receivers[v] for v in local},
                added={v: s for v, s in added.items() if v in local},
                removed={v: s for v, s in removed.items() if v in local},
                batch_epoch=batch_epoch,
            )
        )
    bsp = ArrayBSPEngine(shards, part)
    _attach_obs(bsp, plan)
    bsp.run(programs)
    # Worker slices alias the state's own lists/dicts, so the state is
    # already repaired in place; nothing to merge back.
    return new_graph, state, bsp.stats


def run_distributed_postprocess(
    graph: Graph,
    state: LabelState,
    num_workers: int = 4,
    step: float = 0.001,
) -> Tuple[Cover, CommStats]:
    """Section III-B extraction with the CC stage on the cluster.

    Edge weights and τ2 are cheap one-round aggregations (computed directly
    here); the connected-components stage — the round-dominant part the
    paper discusses — runs distributed, and its stats are returned.
    """
    weights = edge_weights(graph, state.labels)
    tau2 = weak_threshold(graph, weights)
    tau1, _entropy, _curve = sweep_tau1(graph, weights, tau2, step=step)
    components, stats = distributed_connected_components(
        graph, num_workers=num_workers, weights=weights, tau=tau1
    )
    strong = [c for c in components if len(c) >= 2]
    strong_members: Set[int] = set()
    community_of: Dict[int, int] = {}
    communities: List[Set[int]] = []
    for cid, component in enumerate(strong):
        communities.append(set(component))
        strong_members.update(component)
        for v in component:
            community_of[v] = cid
    for v in graph.vertices():
        if v in strong_members:
            continue
        for u in graph.neighbors_view(v):
            if u not in strong_members:
                continue
            edge = (u, v) if u < v else (v, u)
            if weights[edge] >= tau2 - 1e-12:
                communities[community_of[u]].add(v)
    return Cover(communities), stats
