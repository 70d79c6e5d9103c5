"""Distributed Correction Propagation: Algorithm 2 over the BSP engine.

:class:`CorrectionPropagationProgram` — repick requests, record
maintenance (register/unregister), label fetches and correction cascades,
quiescing when every buffer drains (message volume ``O(η)``).  Its
cascade is sparse, so it is a scalar :class:`~repro.distributed.
engine_array.WorkerProgram` that the engine runs through the
:class:`~repro.distributed.engine_array.TupleProgramAdapter`; the test
suite asserts its fixpoint equals the sequential
:class:`~repro.core.incremental.CorrectionPropagator` exactly.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

from repro.core.incremental import keep_lottery_uniform, repick_draw
from repro.core.labels import NO_SOURCE
from repro.distributed.engine_array import MessageContext, WorkerProgram
from repro.distributed.worker import CSRShard

__all__ = ["CorrectionPropagationProgram"]


class CorrectionPropagationProgram(WorkerProgram):
    """Algorithm 2 over workers: incremental repair after an edit batch.

    The shard's adjacency must reflect the *new* graph.  Each worker holds
    the label-state slice (labels/srcs/poss/epochs/receivers) of its local
    vertices; ``added``/``removed`` give the per-local-vertex neighbour
    deltas of the batch.

    Message kinds:
      ``(old_src, "unreg", pos, tar, k)``             — detach a stale record;
      ``(new_src, "fetch", pos, tar, k)``             — register + request;
      ``(tar, "fval", label, k, src, pos, version)``  — fetch reply;
      ``(tar, "corr", label, k, src, pos, version)``  — cascade correction.

    Two safeguards make the unsynchronised cascade converge to exactly the
    sequential fixpoint (asserted by the tests):

    * every value-carrying message is tagged with the provenance
      ``(src, pos)`` it derives from, and receivers drop updates that do not
      match their slot's *current* provenance — corrections from stale
      records (whose unregister is still in flight) are harmless;
    * every source slot carries a monotone ``version`` bumped on each value
      change, and receivers drop updates older than the newest seen — so
      two corrections for the same slot arriving in one superstep cannot be
      applied out of causal order.
    """

    def __init__(
        self,
        shard: CSRShard,
        seed: int,
        iterations: int,
        labels: Dict[int, List[int]],
        srcs: Dict[int, List[int]],
        poss: Dict[int, List[int]],
        epochs: Dict[int, List[int]],
        receivers: Dict[int, Dict[int, Set[Tuple[int, int]]]],
        added: Dict[int, Set[int]],
        removed: Dict[int, Set[int]],
        batch_epoch: int,
    ):
        super().__init__(shard)
        self.seed = seed
        self.iterations = iterations
        self.labels = labels
        self.srcs = srcs
        self.poss = poss
        self.epochs = epochs
        self.receivers = receivers
        self.added = added
        self.removed = removed
        self.batch_epoch = batch_epoch
        self.touched_slots: Set[Tuple[int, int]] = set()
        # versions[(v, t)]: bumped whenever local slot (v, t) changes value.
        self.versions: Dict[Tuple[int, int], int] = {}
        # last_seen[(v, t)]: newest source version applied to local slot.
        self.last_seen: Dict[Tuple[int, int], int] = {}

    # -- classification (local part of Algorithm 2 lines 1-7) -------------
    def on_start(self, ctx: MessageContext) -> None:
        for v in sorted(set(self.added) | set(self.removed)):
            if not self.shard.owns(v):
                continue
            removed_here = self.removed.get(v, set())
            added_here = self.added.get(v, set())
            current = self.shard.neighbors(v)
            n_added = len(added_here)
            n_unchanged = len(current) - n_added
            for t in range(1, self.iterations + 1):
                src = self.srcs[v][t]
                if src == NO_SOURCE:
                    if n_added > 0:
                        self._repick(ctx, v, t, current)
                    continue
                if src in removed_here:
                    self._repick(ctx, v, t, current)
                    continue
                if n_added == 0:
                    continue
                lottery = keep_lottery_uniform(self.seed, v, t, self.batch_epoch)
                if lottery < n_added / (n_unchanged + n_added):
                    self._repick(ctx, v, t, tuple(sorted(added_here)))

    def _repick(
        self, ctx: MessageContext, v: int, t: int, candidates: Sequence[int]
    ) -> None:
        old_src, old_pos = self.srcs[v][t], self.poss[v][t]
        if old_src != NO_SOURCE:
            if self.shard.owns(old_src):
                self._do_unregister(old_src, old_pos, v, t)
            else:
                ctx.send(old_src, ("unreg", old_pos, v, t))
        epoch = self.epochs[v][t] + 1
        self.epochs[v][t] = epoch
        self.touched_slots.add((v, t))
        self.last_seen.pop((v, t), None)  # new provenance: reset staleness gate
        if len(candidates) == 0:
            old_label = self.labels[v][t]
            self.labels[v][t] = self.labels[v][0]
            self.srcs[v][t] = NO_SOURCE
            self.poss[v][t] = NO_SOURCE
            if self.labels[v][t] != old_label:
                self.versions[(v, t)] = self.versions.get((v, t), 0) + 1
                self._broadcast_correction(ctx, v, t)
            return
        idx, pos = repick_draw(self.seed, v, t, epoch, len(candidates))
        src = int(candidates[idx])
        self.srcs[v][t] = src
        self.poss[v][t] = pos
        if self.shard.owns(src):
            self._do_register(src, pos, v, t)
            self._install_value(
                ctx, v, t, self.labels[src][pos], src, pos,
                self.versions.get((src, pos), 0),
            )
        else:
            ctx.send(src, ("fetch", pos, v, t))

    # -- record bookkeeping ------------------------------------------------
    def _do_unregister(self, src: int, pos: int, tar: int, k: int) -> None:
        bucket = self.receivers[src].get(pos)
        if bucket is None or (tar, k) not in bucket:
            raise AssertionError(
                f"unreg of unknown record ({src}, {pos}) -> ({tar}, {k})"
            )
        bucket.discard((tar, k))
        if not bucket:
            del self.receivers[src][pos]

    def _do_register(self, src: int, pos: int, tar: int, k: int) -> None:
        self.receivers[src].setdefault(pos, set()).add((tar, k))

    # -- value updates -----------------------------------------------------
    def _install_value(
        self,
        ctx: MessageContext,
        v: int,
        t: int,
        label: int,
        src: int,
        pos: int,
        version: int,
    ) -> None:
        """Accept an update only if provenance matches and it is not stale."""
        if self.srcs[v][t] != src or self.poss[v][t] != pos:
            return  # stale update from a record whose unregister is in flight
        if version <= self.last_seen.get((v, t), -1):
            return  # an update from a newer source state already applied
        self.last_seen[(v, t)] = version
        if self.labels[v][t] == label:
            return
        self.labels[v][t] = label
        self.versions[(v, t)] = self.versions.get((v, t), 0) + 1
        self.touched_slots.add((v, t))
        self._broadcast_correction(ctx, v, t)

    def _broadcast_correction(self, ctx: MessageContext, v: int, t: int) -> None:
        label = self.labels[v][t]
        version = self.versions.get((v, t), 0)
        for tar, k in sorted(self.receivers[v].get(t, ())):
            if self.shard.owns(tar):
                # Local receiver: apply immediately (forward in iteration,
                # so the recursion is bounded by T).
                self._install_value(ctx, tar, k, label, v, t, version)
            else:
                ctx.send(tar, ("corr", label, k, v, t, version))

    # -- superstep dispatch --------------------------------------------------
    _ORDER = {"unreg": 0, "fval": 1, "corr": 2, "fetch": 3}

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        for message in sorted(inbox, key=lambda m: (self._ORDER[m[1]], m)):
            kind = message[1]
            if kind == "unreg":
                dst, _kind, pos, tar, k = message
                self._do_unregister(dst, pos, tar, k)
            elif kind in ("fval", "corr"):
                dst, _kind, label, k, src, pos, version = message
                self._install_value(ctx, dst, k, label, src, pos, version)
            elif kind == "fetch":
                dst, _kind, pos, tar, k = message
                self._do_register(dst, pos, tar, k)
                ctx.send(
                    tar,
                    (
                        "fval",
                        self.labels[dst][pos],
                        k,
                        dst,
                        pos,
                        self.versions.get((dst, pos), 0),
                    ),
                )
            else:  # pragma: no cover - protocol violation
                raise ValueError(f"unknown message kind {kind!r}")

    def collect(self) -> dict:
        return {
            "labels": self.labels,
            "srcs": self.srcs,
            "poss": self.poss,
            "epochs": self.epochs,
            "receivers": self.receivers,
            "touched": self.touched_slots,
        }
