"""The columnar message plane: schemas, inboxes, and the core oracles.

For every program (rSLPA, SLPA, correction), both shard build paths (the
per-vertex conversion of a non-contiguous ``dict`` graph and the ``csr``
slice of a contiguous one), both partitioner families and several seeds,
a :class:`ArrayBSPEngine` run must reproduce the sequential engines
exactly, and its per-superstep :class:`CommStats` must equal the oracle
derived from the sequential state; the multiprocess backend must agree
with the in-process engine.
"""

from functools import partial

import numpy as np
import pytest

from comm_oracle import expected_rslpa_stats, expected_slpa_stats, stats_tuples
from repro.api import ExecutionConfig
from repro.baselines.slpa import SLPA
from repro.core.incremental import CorrectionPropagator
from repro.core.labels_array import ArrayLabelState
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import (
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.distributed.engine_array import ArrayBSPEngine
from repro.distributed.message import message_size_bytes
from repro.distributed.message_array import (
    SCHEMAS,
    ArrayInbox,
    ArrayMessageContext,
    register_schema,
)
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
)
from repro.distributed.worker import _convert_shard, build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner
from repro.workloads.dynamic import random_edit_batch


def assert_stats_equal(a, b):
    """Per-superstep CommStats equality, counter for counter."""
    assert stats_tuples(a) == stats_tuples(b)


def partitioners(graph):
    return [
        HashPartitioner(3),
        HashPartitioner(4, salt=9),
        ContiguousPartitioner(3, graph.num_vertices),
    ]


def graph_for(build_path, graph):
    """``csr``: the contiguous graph (sliced); ``dict``: the same shape on
    spread-out ids, which build_csr_shards converts per vertex."""
    if build_path == "csr":
        return graph
    return Graph.from_edges(
        [(5 * u + 3, 5 * v + 3) for u, v in graph.edges()],
        vertices=[5 * v + 3 for v in graph.vertices()],
    )


class TestSchemas:
    def test_schema_bytes_match_tuple_plane(self):
        """Per-schema sizes == message_size_bytes on the equivalent tuple."""
        for kind, schema in SCHEMAS.items():
            tuple_form = (0, (kind,) + (1,) * schema.width)
            assert schema.message_bytes == message_size_bytes(tuple_form), kind

    def test_reregister_identical_is_ok(self):
        register_schema("req", ("pos", "requester", "t"))

    def test_reregister_conflicting_rejected(self):
        with pytest.raises(ValueError, match="already registered"):
            register_schema("req", ("other",))

    def test_unknown_kind_rejected(self):
        ctx = ArrayMessageContext()
        with pytest.raises(KeyError, match="unknown message kind"):
            ctx.send(0, ("nonexistent-kind", 1))

    def test_column_width_mismatch_rejected(self):
        ctx = ArrayMessageContext()
        with pytest.raises(ValueError, match="payload columns"):
            ctx.send_columns("spk", np.array([1]), np.array([2]))

    def test_column_length_mismatch_rejected(self):
        ctx = ArrayMessageContext()
        with pytest.raises(ValueError, match="length mismatch"):
            ctx.send_columns(
                "spk", np.array([1, 2]), np.array([3, 4]), np.array([5])
            )


class TestContextAndInbox:
    def test_scalar_and_column_sends_merge(self):
        ctx = ArrayMessageContext()
        ctx.send(4, ("spk", 7, 1))
        ctx.send_columns(
            "spk", np.array([1, 2]), np.array([8, 9]), np.array([1, 1])
        )
        assert ctx.total_messages == 3
        outbox = ctx.finalize()
        assert outbox["spk"][0].tolist() == [4, 1, 2]

    def test_buffer_growth_preserves_rows(self):
        ctx = ArrayMessageContext()
        for i in range(100):  # force several capacity doublings
            ctx.send(i, ("spk", i * 2, 1))
        (dst, label, t) = ctx.finalize()["spk"]
        assert dst.tolist() == list(range(100))
        assert label.tolist() == [i * 2 for i in range(100)]
        assert t.tolist() == [1] * 100

    def test_to_sorted_tuples_matches_reference_order(self):
        """Mixed-kind inbox reconstructs the reference engine's sort."""
        ctx = ArrayMessageContext()
        messages = [
            (5, ("req", 2, 7, 3)),
            (5, ("lab", 9, 1, 0, 3)),
            (2, ("req", 1, 5, 3)),
            (5, ("req", 0, 4, 3)),
        ]
        for dst, payload in messages:
            ctx.send(dst, payload)
        inbox = ArrayInbox(ctx.finalize())
        expected = sorted((dst,) + payload for dst, payload in messages)
        assert inbox.to_sorted_tuples() == expected
        assert inbox.total_messages == 4

    def test_empty_inbox(self):
        inbox = ArrayInbox()
        assert not inbox
        assert inbox.to_sorted_tuples() == []
        assert inbox.columns("spk") is None


class TestShardLocalCSR:
    def test_dict_and_csr_shards_agree(self, small_lfr):
        """Per-vertex conversion of the dict graph == the CSR slice."""
        graph = small_lfr.graph
        part = HashPartitioner(4)
        groups = part.partition(graph.vertices())
        for cshard in build_csr_shards(graph, part):
            dshard = _convert_shard(graph, cshard.worker_id, groups[cshard.worker_id])
            assert dshard.local_ids.tolist() == cshard.local_ids.tolist()
            assert dshard.indptr.tolist() == cshard.indptr.tolist()
            assert dshard.indices.tolist() == cshard.indices.tolist()

    def test_csr_shard_arrays_are_read_only(self, cliques_ring):
        """Programs cannot silently corrupt the shared shard adjacency."""
        shard = build_csr_shards(cliques_ring, HashPartitioner(2))[0]
        view = shard.neighbors(next(iter(shard.vertices)))
        assert not view.flags.writeable
        with pytest.raises(ValueError):
            view[0] = 99
        with pytest.raises(ValueError):
            shard.indices[0] = 99
        with pytest.raises(ValueError):
            shard.indptr[0] = 99
        with pytest.raises(ValueError):
            shard.local_ids[0] = 99

    def test_csr_shard_does_not_freeze_caller_arrays(self):
        """The shard freezes its own views, not the constructor arguments."""
        from repro.distributed.worker import CSRShard

        ids = np.array([0, 1], dtype=np.int64)
        indptr = np.array([0, 1, 2], dtype=np.int64)
        indices = np.array([1, 0], dtype=np.int64)
        shard = CSRShard(0, ids, indptr, indices)
        ids[0] = 5  # caller's buffer stays writeable...
        indices[0] = 7
        assert not shard.local_ids.flags.writeable  # ...the shard's view not


class TestRSLPAEquality:
    @pytest.mark.parametrize("seed", [0, 7, 23])
    @pytest.mark.parametrize("shard_backend", ["dict", "csr"])
    def test_engine_equality_all_partitioners(self, seed, shard_backend):
        """Both shard build paths == ReferencePropagator, stats == oracle."""
        graph = graph_for(shard_backend, erdos_renyi(60, 0.08, seed=11))
        ref = ReferencePropagator(graph.copy(), seed=seed)  # isolated vertices
        ref.propagate(12)
        for part in partitioners(graph):
            state, stats = run_distributed_rslpa(
                graph.copy(), seed=seed, iterations=12, partitioner=part,
                num_workers=part.num_partitions,
            )
            assert state.labels == ref.state.labels
            assert state.srcs == ref.state.srcs
            assert state.poss == ref.state.poss
            assert state.epochs == ref.state.epochs
            assert state.receivers == ref.state.receivers
            assert stats_tuples(stats) == expected_rslpa_stats(
                ref.state, part, 12
            )

    def test_program_collect_identical(self, small_lfr):
        """Program-level oracle: collect() matrices == the sequential state."""
        graph = small_lfr.graph
        part = HashPartitioner(3)
        shards = build_csr_shards(graph, part)
        programs = [
            FastRSLPAPropagationProgram(s, seed=5, iterations=10) for s in shards
        ]
        ArrayBSPEngine(shards, part).run(programs)
        ref = ReferencePropagator(graph.copy(), seed=5)
        ref.propagate(10)
        for program in programs:
            local_ids, labels, srcs, poss = program.collect()
            for r, v in enumerate(local_ids.tolist()):
                assert labels[:, r].tolist() == ref.state.labels[v]
                assert srcs[:, r].tolist() == ref.state.srcs[v]
                assert poss[:, r].tolist() == ref.state.poss[v]

    def test_keyword_and_config_entry_points_agree(self, cliques_ring):
        """A keyword call and a config call run the same plane."""
        kw_state, kw_stats = run_distributed_rslpa(
            cliques_ring.copy(), seed=3, iterations=8, num_workers=3
        )
        cfg_state, cfg_stats = run_distributed_rslpa(
            cliques_ring.copy(), seed=3, iterations=8,
            config=ExecutionConfig(num_workers=3),
        )
        assert isinstance(cfg_state, ArrayLabelState)
        exported = cfg_state.to_label_state()
        assert kw_state.labels == exported.labels
        assert kw_state.srcs == exported.srcs
        assert kw_state.poss == exported.poss
        assert kw_state.receivers == exported.receivers
        assert_stats_equal(kw_stats, cfg_stats)

    def test_array_state_format(self, cliques_ring):
        """state_format='array' returns the ArrayLabelState export."""
        ref = ReferencePropagator(cliques_ring.copy(), seed=7)
        ref.propagate(15)
        astate, _ = run_distributed_rslpa(
            cliques_ring.copy(), seed=7, iterations=15, state_format="array",
        )
        assert isinstance(astate, ArrayLabelState)
        exported = astate.to_label_state()
        assert exported.labels == ref.state.labels
        assert exported.receivers == ref.state.receivers

    def test_invalid_engine_rejected(self, cliques_ring):
        """The retired message-plane axis is no longer a keyword."""
        with pytest.raises(TypeError, match="engine"):
            run_distributed_rslpa(cliques_ring, engine="array")

    def test_out_of_range_owner_fails_loudly(self, cliques_ring):
        """A buggy partitioner cannot silently drop routed messages."""
        from repro.distributed.message_array import route_columns

        class OffByOne(HashPartitioner):
            def owner_array(self, vertices):
                return super().owner_array(vertices) + self.num_partitions

        part = OffByOne(2)
        outbox = {0: {"spk": (np.array([1]), np.array([5]), np.array([1]))}}
        with pytest.raises(ValueError, match="outside"):
            route_columns(outbox, part, 2, superstep=1)

    def test_unowned_destination_fails_loudly(self, cliques_ring):
        """A partitioner/shard mismatch raises instead of mis-scattering."""
        part = HashPartitioner(2)
        shards = build_csr_shards(cliques_ring, part)
        program = FastRSLPAPropagationProgram(shards[0], seed=1, iterations=4)
        foreign = next(v for v in cliques_ring.vertices()
                       if v not in shards[0].vertices)
        with pytest.raises(KeyError, match="not owned"):
            program._rows_of(np.array([foreign], dtype=np.int64))

    def test_non_partition_worker_ids_rejected(self, cliques_ring):
        """Misnumbered shards fail loudly instead of dropping messages."""
        from repro.distributed.worker import CSRShard

        part = HashPartitioner(2)
        shards = build_csr_shards(cliques_ring, part)
        renumbered = [
            CSRShard(s.worker_id + 5, s.local_ids, s.indptr, s.indices)
            for s in shards
        ]
        with pytest.raises(ValueError, match="partition"):
            ArrayBSPEngine(renumbered, part)
        with pytest.raises(ValueError, match="partition"):
            MultiprocessBSPEngine(
                renumbered, part,
                partial(FastRSLPAPropagationProgram, seed=1, iterations=2),
            )

    def test_invalid_state_format_rejected(self, cliques_ring):
        with pytest.raises(ValueError, match="state_format"):
            run_distributed_rslpa(cliques_ring, state_format="parquet")


class TestSLPAEquality:
    @pytest.mark.parametrize("seed", [0, 4])
    @pytest.mark.parametrize("shard_backend", ["dict", "csr"])
    def test_engine_equality_all_partitioners(self, seed, shard_backend):
        """Both shard build paths == the SLPA baseline, stats == oracle."""
        graph = graph_for(shard_backend, erdos_renyi(50, 0.1, seed=2))
        ref = SLPA(graph.copy(), seed=seed, iterations=10)
        ref.propagate()
        for part in partitioners(graph):
            memories, stats = run_distributed_slpa(
                graph.copy(), seed=seed, iterations=10, partitioner=part,
                num_workers=part.num_partitions,
            )
            assert memories == ref.memories
            assert stats_tuples(stats) == expected_slpa_stats(graph, part, 10)

    def test_matches_sequential_slpa(self, small_lfr):
        graph = small_lfr.graph
        seq = SLPA(graph.copy(), seed=6, iterations=12)
        seq.propagate()
        mem, _ = run_distributed_slpa(
            graph.copy(), seed=6, iterations=12, num_workers=4,
        )
        assert mem == seq.memories


class TestCorrectionEquality:
    @pytest.mark.parametrize("shard_backend", ["dict", "csr"])
    def test_adapter_equals_reference_across_batches(self, shard_backend):
        """Correction via TupleProgramAdapter == the sequential corrector."""
        graph = graph_for(shard_backend, erdos_renyi(60, 0.06, seed=17))

        seq_graph = graph.copy()
        seq_prop = ReferencePropagator(seq_graph, seed=3)
        seq_prop.propagate(15)
        corrector = CorrectionPropagator(seq_prop)

        dist_graph = graph.copy()
        dist_prop = ReferencePropagator(dist_graph, seed=3)
        dist_prop.propagate(15)
        dist_state = dist_prop.state
        for epoch in range(1, 5):
            batch = random_edit_batch(seq_graph, 6, seed=epoch)
            corrector.apply_batch(batch)
            dist_graph, dist_state, stats = run_distributed_update(
                dist_graph, dist_state, batch, seed=3, batch_epoch=epoch,
                num_workers=3,
            )
            assert dist_state.labels == corrector.state.labels, epoch
            assert dist_state.srcs == corrector.state.srcs
            assert dist_state.epochs == corrector.state.epochs
            assert dist_state.receivers == corrector.state.receivers


class TestMultiprocessArrayPlane:
    """Multiprocess runs == in-process runs (small worker counts for CI)."""

    def _run(self, shards, part, factory):
        with MultiprocessBSPEngine(shards, part, factory) as eng:
            stats = eng.run()
            results = eng.collect()
        return results, stats

    @staticmethod
    def _in_process(shards, part, factory):
        programs = [factory(shard) for shard in shards]
        engine = ArrayBSPEngine(shards, part)
        engine.run(programs)
        return [program.collect() for program in programs], engine.stats

    def test_rslpa_matches_in_process(self):
        graph = ring_of_cliques(3, 5)
        part = HashPartitioner(2)
        shards = build_csr_shards(graph, part)
        factory = partial(FastRSLPAPropagationProgram, seed=5, iterations=10)
        mp_results, mp_stats = self._run(shards, part, factory)
        ip_results, ip_stats = self._in_process(shards, part, factory)
        for mp_cols, ip_cols in zip(mp_results, ip_results):
            for mp_col, ip_col in zip(mp_cols, ip_cols):
                assert mp_col.tolist() == ip_col.tolist()
        assert_stats_equal(mp_stats, ip_stats)

    def test_slpa_matches_in_process(self):
        graph = ring_of_cliques(3, 4)
        part = HashPartitioner(2)
        shards = build_csr_shards(graph, part)
        factory = partial(FastSLPAPropagationProgram, seed=2, iterations=8)
        mp_results, mp_stats = self._run(shards, part, factory)
        ip_results, ip_stats = self._in_process(shards, part, factory)
        assert mp_results == ip_results
        assert_stats_equal(mp_stats, ip_stats)

    def test_tuple_program_auto_wrapped_on_array_plane(self):
        """A scalar WorkerProgram factory runs multiprocess via the adapter."""
        from repro.distributed.components import HashToMinProgram

        graph = ring_of_cliques(2, 4)
        part = HashPartitioner(2)
        shards = build_csr_shards(graph, part)
        mp_results, mp_stats = self._run(shards, part, HashToMinProgram)
        ip_results, ip_stats = self._in_process(shards, part, HashToMinProgram)
        assert mp_results == ip_results
        assert_stats_equal(mp_stats, ip_stats)

    def test_invalid_plane_rejected(self):
        """The retired plane selector is no longer a constructor argument."""
        graph = ring_of_cliques(2, 4)
        part = HashPartitioner(2)
        with pytest.raises(TypeError, match="plane"):
            MultiprocessBSPEngine(
                build_csr_shards(graph, part), part,
                partial(FastRSLPAPropagationProgram, seed=1, iterations=2),
                plane="tuple",
            )


class TestDetectorDistributedFit:
    def test_fit_distributed_matches_fit(self, cliques_ring):
        from repro.core.detector import RSLPADetector

        local = RSLPADetector(cliques_ring, seed=9, iterations=40).fit()
        assert local.comm_stats is None
        dist = RSLPADetector(cliques_ring, seed=9, iterations=40)
        dist.fit_distributed(num_workers=3)
        assert dist.comm_stats is not None
        assert dist.comm_stats.total_messages > 0
        assert dist.label_state.labels == local.label_state.labels
        assert dist.communities() == local.communities()
        dist.fit()  # a local re-fit clears the distributed counters
        assert dist.comm_stats is None

    def test_fit_distributed_reference_backend(self, cliques_ring):
        from repro.core.detector import RSLPADetector

        local = RSLPADetector(
            cliques_ring, seed=9, iterations=30, backend="reference"
        ).fit()
        dist = RSLPADetector(
            cliques_ring, seed=9, iterations=30, backend="reference"
        )
        dist.fit_distributed(num_workers=2)
        assert dist.label_state.labels == local.label_state.labels

    def test_update_after_fit_distributed(self, cliques_ring):
        """The incremental lifecycle continues off a distributed fit."""
        from repro.core.detector import RSLPADetector

        batch = random_edit_batch(cliques_ring, 4, seed=1)
        local = RSLPADetector(cliques_ring, seed=2, iterations=25).fit()
        local.update(batch)
        dist = RSLPADetector(cliques_ring, seed=2, iterations=25)
        dist.fit_distributed(num_workers=3)
        dist.update(batch)
        assert dist.label_state.labels == local.label_state.labels
