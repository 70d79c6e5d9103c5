"""The BSP superstep engine and its worker-program contracts.

Executes worker programs over a set of shards in bulk-synchronous
supersteps, exactly like the MapReduce/Spark execution model the paper
targets (Section V-B2): within a superstep every worker processes its
inbox and emits messages; the engine routes messages to the owner of the
destination vertex at the synchronisation barrier and records
communication statistics.

There is one message plane: the struct-of-arrays one from
:mod:`repro.distributed.message_array`.  Programs emit column batches into
an :class:`~repro.distributed.message_array.ArrayMessageContext`, and the
barrier is one vectorised
:func:`~repro.distributed.message_array.route_columns` call.  Programs are
*worker-level* (one instance per shard) rather than vertex-level: the
paper's algorithms are most naturally written as mappers/reducers over a
worker's local vertices (see Algorithms 1-2).  Two program flavours run
here:

* :class:`ArrayWorkerProgram` subclasses — array-native, they consume the
  per-kind inbox columns wholesale (see
  :mod:`repro.distributed.programs_array`);
* :class:`WorkerProgram` subclasses — scalar programs for sparse
  protocols (Correction Propagation, Hash-to-Min).  They send
  ``(dst, (kind, *ints))`` tuples through a :class:`MessageContext` and
  receive the sorted tuple inbox; :class:`TupleProgramAdapter` (applied
  automatically by :func:`as_array_program`) converts both directions
  against the kind's registered schema.

Determinism: workers run in id order and inboxes are delivered sorted, so
a run is a pure function of (program, shards, seed) — the property that
lets the test suite assert distributed == sequential equality bit for
bit.  Observability: set :attr:`ArrayBSPEngine.obs` to record
``engine.compute`` / ``engine.route`` spans, leave it ``None`` for a
zero-overhead run.
"""

from __future__ import annotations

from time import time_ns
from typing import Dict, List, Sequence, Union

from repro.distributed.message import Message
from repro.distributed.message_array import (
    ArrayInbox,
    ArrayMessageContext,
    ArrayOutbox,
    route_columns,
)
from repro.distributed.metrics import CommStats
from repro.distributed.worker import CSRShard
from repro.graph.partition import Partitioner

__all__ = [
    "MessageContext",
    "WorkerProgram",
    "ArrayWorkerProgram",
    "TupleProgramAdapter",
    "as_array_program",
    "ArrayBSPEngine",
]


class _ProgramBase:
    """Shard binding plus the checkpoint contract shared by both flavours."""

    def __init__(self, shard: CSRShard):
        self.shard = shard

    def on_start(self, ctx) -> None:
        """Called once before superstep 1; emit initial messages here."""

    def collect(self):
        """Return this worker's final local results (merged by the caller)."""
        return {}

    def snapshot(self) -> dict:
        """Portable copy of this program's mutable state (checkpointing).

        The default captures everything in ``__dict__`` except the shard:
        shards are immutable inputs the supervisor re-ships to a
        replacement process, not state.  The snapshot is pickled across a
        process boundary, which is what gives it copy semantics — programs
        whose state is builtins/ndarrays (all built-ins) need not override.
        """
        return {k: v for k, v in self.__dict__.items() if k != "shard"}

    def restore(self, snapshot: dict) -> None:
        """Reinstate a :meth:`snapshot`; replay from it is bit-identical
        because every random draw is keyed by counters in that state."""
        self.__dict__.update(snapshot)


class MessageContext:
    """Collects the scalar messages a :class:`WorkerProgram` emits."""

    __slots__ = ("outbox",)

    def __init__(self):
        self.outbox: List[Message] = []

    def send(self, dst_vertex: int, payload: tuple) -> None:
        """Queue ``(kind, *ints)`` for delivery to ``dst_vertex`` next superstep."""
        self.outbox.append((dst_vertex, payload))


class WorkerProgram(_ProgramBase):
    """Base class for scalar (tuple-level) worker programs.

    Payloads are ``(kind, *ints)`` with ``kind`` registered in
    :data:`~repro.distributed.message_array.SCHEMAS`.  Programs must be
    picklable if run under the multiprocess backend.
    """

    def on_superstep(
        self, ctx: MessageContext, superstep: int, inbox: Sequence[tuple]
    ) -> None:
        """Process this worker's inbox; emit follow-up messages via ``ctx``.

        ``inbox`` holds ``(dst, kind, *fields)`` tuples addressed to this
        worker's vertices, fully sorted for determinism.  The engine stops
        when a superstep generates no messages anywhere.
        """
        raise NotImplementedError


class ArrayWorkerProgram(_ProgramBase):
    """Base class for array-native worker programs.

    ``ctx`` is an :class:`ArrayMessageContext` and the inbox arrives as an
    :class:`ArrayInbox` of per-kind column tuples (sorted by
    ``(dst, fields...)`` within each kind).
    """

    def on_superstep(
        self, ctx: ArrayMessageContext, superstep: int, inbox: ArrayInbox
    ) -> None:
        """Process this worker's inbox columns; emit follow-ups via ``ctx``.

        Inbox columns are read-only and only guaranteed valid for the
        duration of this call: under the multiprocess shared-memory
        transport they are views into a ring slot that is rewritten two
        supersteps later.  Programs that must retain inbox data across
        supersteps should keep :meth:`ArrayInbox.materialize`'s owned
        copy instead of the inbox itself (the built-in programs consume
        their inbox within the superstep, which is the common shape).
        """
        raise NotImplementedError


class TupleProgramAdapter(ArrayWorkerProgram):
    """Runs a scalar :class:`WorkerProgram` on the columnar plane.

    The adapter rebuilds the fully sorted tuple inbox
    (:meth:`ArrayInbox.to_sorted_tuples`) for ``on_superstep`` and funnels
    the program's scalar sends into the column buffers.
    """

    def __init__(self, program: WorkerProgram):
        super().__init__(program.shard)
        self.program = program

    @staticmethod
    def _forward(tuple_ctx: MessageContext, ctx: ArrayMessageContext) -> None:
        for dst_vertex, payload in tuple_ctx.outbox:
            ctx.send(dst_vertex, payload)

    def on_start(self, ctx: ArrayMessageContext) -> None:
        tuple_ctx = MessageContext()
        self.program.on_start(tuple_ctx)
        self._forward(tuple_ctx, ctx)

    def on_superstep(
        self, ctx: ArrayMessageContext, superstep: int, inbox: ArrayInbox
    ) -> None:
        tuple_ctx = MessageContext()
        self.program.on_superstep(tuple_ctx, superstep, inbox.to_sorted_tuples())
        self._forward(tuple_ctx, ctx)

    def collect(self):
        return self.program.collect()

    def snapshot(self) -> dict:
        # Delegate: the wrapped program's state is the state (the default
        # would capture `self.program` wholesale, shard included).
        return self.program.snapshot()

    def restore(self, snapshot: dict) -> None:
        self.program.restore(snapshot)


def as_array_program(
    program: Union[WorkerProgram, ArrayWorkerProgram]
) -> ArrayWorkerProgram:
    """``program`` itself if array-native, else wrapped in the adapter."""
    if isinstance(program, ArrayWorkerProgram):
        return program
    return TupleProgramAdapter(program)


def check_worker_ids(shards: Sequence[CSRShard], partitioner: Partitioner) -> None:
    """Shards must be exactly one per partition, numbered by partition index.

    :func:`route_columns` addresses inboxes by partition index, so ids
    must BE the partition indices (the builders guarantee this); fail
    loudly instead of silently dropping misaddressed mail.
    """
    if len(shards) != partitioner.num_partitions:
        raise ValueError(
            f"{len(shards)} shards but partitioner has "
            f"{partitioner.num_partitions} partitions"
        )
    worker_ids = sorted(shard.worker_id for shard in shards)
    if worker_ids != list(range(partitioner.num_partitions)):
        raise ValueError(
            f"shard worker_ids {worker_ids} must be the partition "
            f"indices 0..{partitioner.num_partitions - 1}"
        )


class ArrayBSPEngine:
    """Runs worker programs over shards with a vectorised routing barrier."""

    def __init__(self, shards: Sequence[CSRShard], partitioner: Partitioner):
        check_worker_ids(shards, partitioner)
        self.shards = list(shards)
        self.partitioner = partitioner
        self.stats = CommStats()
        self.obs = None  # set to a repro.obs.Obs to record this engine

    def run(
        self,
        programs: Sequence[Union[WorkerProgram, ArrayWorkerProgram]],
        max_supersteps: int = 100_000,
    ) -> List[Union[WorkerProgram, ArrayWorkerProgram]]:
        """Execute until message quiescence (or the superstep cap).

        Returns the programs as passed, so callers can ``collect()``.
        """
        if len(programs) != len(self.shards):
            raise ValueError("one program instance per shard is required")
        obs = self.obs
        num_partitions = self.partitioner.num_partitions
        runnable = [as_array_program(program) for program in programs]
        outboxes: Dict[int, ArrayOutbox] = {}
        for program in runnable:
            if obs is not None:
                compute_start = time_ns()
            ctx = ArrayMessageContext()
            program.on_start(ctx)
            outboxes[program.shard.worker_id] = ctx.finalize()
            if obs is not None:
                obs.trace.record(
                    "engine.compute",
                    compute_start,
                    plane="array",
                    worker=program.shard.worker_id,
                    superstep=0,
                )
        superstep = 0
        while any(outboxes.values()):
            superstep += 1
            if superstep > max_supersteps:
                raise RuntimeError(
                    f"BSP program did not quiesce within {max_supersteps} supersteps"
                )
            if obs is not None:
                route_start = time_ns()
            inboxes, step_stats = route_columns(
                outboxes, self.partitioner, num_partitions, superstep
            )
            self.stats.record(step_stats)
            if obs is not None:
                obs.trace.record(
                    "engine.route", route_start, plane="array",
                    superstep=superstep,
                )
                obs.metrics.counter("engine.messages").inc(step_stats.messages)
                obs.metrics.counter("engine.remote_messages").inc(
                    step_stats.remote_messages
                )
                obs.metrics.counter("engine.bytes").inc(step_stats.bytes)
                obs.metrics.counter("engine.remote_bytes").inc(
                    step_stats.remote_bytes
                )
            outboxes = {}
            for program in runnable:
                if obs is not None:
                    compute_start = time_ns()
                ctx = ArrayMessageContext()
                inbox = ArrayInbox(inboxes.get(program.shard.worker_id))
                program.on_superstep(ctx, superstep, inbox)
                outboxes[program.shard.worker_id] = ctx.finalize()
                if obs is not None:
                    obs.trace.record(
                        "engine.compute",
                        compute_start,
                        plane="array",
                        worker=program.shard.worker_id,
                        superstep=superstep,
                    )
        return list(programs)
