"""Communication oracles derived from the sequential engines.

Two independent restatements of what the BSP message plane must do:

* :func:`tuple_route` — the per-message routing barrier: every message
  becomes a ``(dst, (kind, *fields))`` tuple, is sized with
  :func:`message_size_bytes`, counted remote iff its destination's owner
  differs from the sender, and delivered into a fully sorted tuple inbox.
  :func:`route_columns` must agree with it counter for counter and row
  for row; :func:`checked_route_columns` asserts that on every call.
* :func:`expected_rslpa_stats` / :func:`expected_slpa_stats` — the
  per-superstep :class:`CommStats` a run must report, computed from the
  core sequential state alone (no distributed code involved).
"""

from __future__ import annotations

from typing import Dict, List

from repro.core.labels import NO_SOURCE
from repro.distributed import message_array
from repro.distributed.message import message_size_bytes
from repro.distributed.message_array import SCHEMAS
from repro.distributed.metrics import SuperstepStats


def tuple_route(outboxes, partitioner, superstep):
    """The per-message barrier over column outboxes: (inboxes, stats)."""
    step_stats = SuperstepStats(superstep=superstep)
    inboxes: Dict[int, List[tuple]] = {
        p: [] for p in range(partitioner.num_partitions)
    }
    for sender_id, outbox in outboxes.items():
        for kind, cols in outbox.items():
            for dst, *fields in zip(*(col.tolist() for col in cols)):
                payload = (kind, *fields)
                owner = partitioner.owner(dst)
                size = message_size_bytes((dst, payload))
                step_stats.messages += 1
                step_stats.bytes += size
                if owner != sender_id:
                    step_stats.remote_messages += 1
                    step_stats.remote_bytes += size
                inboxes[owner].append((dst,) + payload)
    for inbox in inboxes.values():
        inbox.sort()
    return inboxes, step_stats


def stats_tuples(stats):
    """Per-superstep counters as comparable tuples."""
    return [
        (s.superstep, s.messages, s.remote_messages, s.bytes, s.remote_bytes)
        for s in stats.per_superstep
    ]


def checked_route_columns(seen_kinds=None):
    """A :func:`route_columns` that asserts agreement with :func:`tuple_route`.

    Patch it over the engine module's ``route_columns``; every kind it
    routes is added to ``seen_kinds`` when given.
    """
    real = message_array.route_columns

    def route(outboxes, partitioner, num_partitions, superstep):
        inboxes, step_stats = real(outboxes, partitioner, num_partitions, superstep)
        oracle_inboxes, oracle_stats = tuple_route(outboxes, partitioner, superstep)
        assert step_stats.as_dict() == oracle_stats.as_dict()
        for p in range(num_partitions):
            delivered = message_array.ArrayInbox(inboxes[p]).to_sorted_tuples()
            assert delivered == oracle_inboxes[p], (superstep, p)
        if seen_kinds is not None:
            for outbox in outboxes.values():
                seen_kinds.update(outbox)
        return inboxes, step_stats

    return route


def _step(superstep, sends, partitioner, kind):
    """SuperstepStats for ``(sender_vertex, dst_vertex)`` pairs of one kind."""
    size = SCHEMAS[kind].message_bytes
    remote = sum(
        1 for a, b in sends if partitioner.owner(a) != partitioner.owner(b)
    )
    return (superstep, len(sends), remote, len(sends) * size, remote * size)


def expected_rslpa_stats(state, partitioner, iterations):
    """Algorithm 1's per-superstep counters from a sequential label state.

    Per iteration ``t``: superstep ``2t-1`` carries one ``req`` per
    non-isolated vertex ``v`` (``v`` → ``srcs[v][t]``), superstep ``2t``
    the ``lab`` reply back; both are remote iff the owners differ.
    """
    steps = []
    for t in range(1, iterations + 1):
        pairs = [
            (v, state.srcs[v][t])
            for v in state.labels
            if state.srcs[v][t] != NO_SOURCE
        ]
        if not pairs:
            return []  # no edges: the run quiesces before superstep 1
        steps.append(_step(2 * t - 1, pairs, partitioner, "req"))
        steps.append(_step(2 * t, pairs, partitioner, "lab"))
    return steps


def expected_slpa_stats(graph, partitioner, iterations):
    """The SLPA push protocol's counters: one ``spk`` per directed edge."""
    pairs = [(u, v) for u, v in graph.edges()] + [(v, u) for u, v in graph.edges()]
    if not pairs:
        return []
    return [_step(t, pairs, partitioner, "spk") for t in range(1, iterations + 1)]
