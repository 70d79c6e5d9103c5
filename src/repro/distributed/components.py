"""Distributed connected components in logarithmic rounds (hash-to-min).

The rSLPA post-processing finds communities as connected components of the
τ1-filtered weight graph; the paper cites Chitnis et al. (ICDE 2013,
ref. [18]) for an ``O(log d)``-round MapReduce algorithm.  This module
implements the **Hash-to-Min** scheme from that line of work on the BSP
engine:

* every vertex ``v`` keeps a cluster set ``C_v``, initially ``{v} ∪ N(v)``;
* each round, ``v`` sends ``C_v`` to ``m = min(C_v)`` and ``{m}`` to every
  other member of ``C_v``; clusters are replaced by the union of received
  sets.  Sets travel as fixed-width ``("set", member)`` messages, one per
  member, so ``C_v`` costs ``|C_v|`` messages to ``m``;
* at convergence ``min(C_v)`` is the component representative for every
  ``v`` (and the representative's cluster holds its whole component).

Vertices only re-send when their cluster changed (delta sending), so the
engine's message-quiescence rule doubles as convergence detection.

Edge filtering (``weights``/``tau``) runs the algorithm on the subgraph of
edges with weight >= τ — exactly what the distributed post-processing needs
without materialising the filtered graph (Section V-B2).
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.distributed.engine_array import (
    ArrayBSPEngine,
    MessageContext,
    WorkerProgram,
)
from repro.distributed.metrics import CommStats
from repro.distributed.worker import CSRShard, build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.partition import HashPartitioner, Partitioner

__all__ = ["HashToMinProgram", "distributed_connected_components"]

Edge = Tuple[int, int]


class HashToMinProgram(WorkerProgram):
    """Hash-to-Min connected components over one worker shard."""

    def __init__(self, shard: CSRShard):
        super().__init__(shard)
        # int() keeps cluster members plain ints (shard rows are arrays).
        self.clusters: Dict[int, Set[int]] = {
            v: {v, *(int(u) for u in shard.neighbors(v))} for v in shard.vertices
        }
        self._dirty: Set[int] = {v for v in shard.vertices if shard.degree(v) > 0}

    def _emit(self, ctx: MessageContext) -> None:
        for v in sorted(self._dirty):
            cluster = self.clusters[v]
            m = min(cluster)
            for u in sorted(cluster):
                ctx.send(m, ("set", u))
                if u != m:
                    ctx.send(u, ("set", m))
        self._dirty.clear()

    def on_start(self, ctx: MessageContext) -> None:
        self._emit(ctx)

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        received: Dict[int, Set[int]] = {}
        for dst, _kind, member in inbox:
            received.setdefault(dst, set()).add(member)
        for v, incoming in received.items():
            if not incoming <= self.clusters[v]:
                # Monotone variant: clusters only grow, so delta-sending
                # quiesces and min() improves until it is the component min.
                self.clusters[v] |= incoming
                self._dirty.add(v)
        self._emit(ctx)

    def collect(self) -> dict:
        return {v: min(cluster) for v, cluster in self.clusters.items()}


def _filtered_adjacency(
    graph: Graph,
    weights: Optional[Mapping[Edge, float]],
    tau: Optional[float],
) -> Graph:
    """The τ-filtered subgraph (all vertices kept, weak edges dropped)."""
    if weights is None or tau is None:
        return graph
    filtered = Graph.from_edges((), vertices=graph.vertices())
    for (u, v), w in weights.items():
        if w >= tau - 1e-12:
            filtered.add_edge(u, v)
    return filtered


def distributed_connected_components(
    graph: Graph,
    num_workers: int = 4,
    weights: Optional[Mapping[Edge, float]] = None,
    tau: Optional[float] = None,
    partitioner: Optional[Union[str, Partitioner]] = None,
) -> Tuple[List[Set[int]], CommStats]:
    """Components of the (optionally τ-filtered) graph, plus comm stats.

    Returns components sorted by (size desc, min vertex) — including
    singletons, so callers can apply the paper's ">= 2 vertices" rule.
    ``partitioner`` is a ready :class:`Partitioner`, a name registered in
    :data:`repro.api.registry.PARTITIONERS` (``"hash"``, ``"range"``, or
    a plugin — resolved against this graph's capabilities, the same
    resolution :func:`~repro.api.plan.resolve_plan` applies), or ``None``
    for the default hash partitioner.
    """
    filtered = _filtered_adjacency(graph, weights, tau)
    if isinstance(partitioner, str):
        from repro.api.plan import GraphCaps
        from repro.api.registry import PARTITIONERS

        part = PARTITIONERS.resolve(partitioner)(
            num_workers, GraphCaps.of(graph)
        )
    else:
        part = partitioner or HashPartitioner(num_workers)
    shards = build_csr_shards(filtered, part)
    engine = ArrayBSPEngine(shards, part)
    programs = [HashToMinProgram(shard) for shard in shards]
    engine.run(programs)
    representative: Dict[int, int] = {}
    for program in programs:
        representative.update(program.collect())
    groups: Dict[int, Set[int]] = {}
    for v, rep in representative.items():
        groups.setdefault(rep, set()).add(v)
    components = sorted(groups.values(), key=lambda c: (-len(c), min(c)))
    return components, engine.stats
