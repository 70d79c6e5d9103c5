"""CSR worker shards for every id layout: both build paths, every wrapper.

:func:`build_csr_shards` slices a CSR snapshot when the ids are contiguous
and converts per vertex (from the dict :class:`Graph`) otherwise.  Both
paths must yield the same shards, and every distributed wrapper — rSLPA,
SLPA, Correction Propagation, connected components — must stay
bit-identical to the sequential engines on graphs whose ids are *not*
``0..n-1``, in-process and on the multiprocess backend over every
transport.
"""

from functools import partial

import pytest

from comm_oracle import expected_rslpa_stats, expected_slpa_stats, stats_tuples
from repro.api import ExecutionConfig
from repro.baselines.slpa import SLPA
from repro.core.incremental import CorrectionPropagator
from repro.core.rslpa import ReferencePropagator
from repro.distributed.cluster import (
    run_distributed_rslpa,
    run_distributed_slpa,
    run_distributed_update,
)
from repro.distributed.components import distributed_connected_components
from repro.distributed.multiprocess import MultiprocessBSPEngine
from repro.distributed.programs_array import (
    FastRSLPAPropagationProgram,
    FastSLPAPropagationProgram,
)
from repro.distributed.worker import CSRShard, _convert_shard, build_csr_shards
from repro.graph.adjacency import Graph
from repro.graph.csr import CSRGraph
from repro.graph.edits import EditBatch
from repro.graph.generators import erdos_renyi, ring_of_cliques
from repro.graph.partition import ContiguousPartitioner, HashPartitioner


def spread_ids(graph, scale=7, offset=100):
    """``graph`` relabelled to the non-contiguous ids ``v*scale + offset``."""
    return Graph.from_edges(
        [(u * scale + offset, v * scale + offset) for u, v in graph.edges()],
        vertices=[v * scale + offset for v in graph.vertices()],
    )


def converted_shards(graph, part):
    """The per-vertex conversion path, forced even for contiguous ids."""
    groups = part.partition(graph.vertices())
    return [
        _convert_shard(graph, wid, groups[wid])
        for wid in range(part.num_partitions)
    ]


def assert_same_state(state, ref_state):
    assert state.labels == ref_state.labels
    assert state.srcs == ref_state.srcs
    assert state.poss == ref_state.poss
    assert state.receivers == ref_state.receivers


class TestShardParity:
    def test_csr_shards_expose_same_neighbour_sequences(self, small_lfr):
        for graph in (small_lfr.graph, spread_ids(small_lfr.graph)):
            self._assert_shards_mirror(graph, HashPartitioner(4))

    @staticmethod
    def _assert_shards_mirror(graph, part):
        shards = build_csr_shards(graph, part)
        assert sorted(v for s in shards for v in s.vertices) == sorted(
            graph.vertices()
        )
        for shard in shards:
            assert isinstance(shard, CSRShard)
            assert shard.local_ids.tolist() == sorted(shard.vertices)
            assert shard.local_edges() == sum(
                graph.degree(v) for v in shard.vertices
            )
            for v in shard.vertices:
                assert shard.neighbors(v).tolist() == sorted(
                    graph.neighbors_view(v)
                )
                assert shard.degree(v) == graph.degree(v)

    def test_csr_shards_accept_prebuilt_snapshot(self, cliques_ring):
        part = ContiguousPartitioner(3, cliques_ring.num_vertices)
        from_graph = build_csr_shards(cliques_ring, part)
        from_snapshot = build_csr_shards(CSRGraph.from_graph(cliques_ring), part)
        for a, b in zip(from_graph, from_snapshot):
            assert a.vertices == b.vertices
            assert a.indices.tolist() == b.indices.tolist()

    def test_conversion_path_equals_slice_path(self, small_lfr):
        graph = small_lfr.graph
        part = HashPartitioner(3, salt=2)
        for sliced, converted in zip(
            build_csr_shards(graph, part), converted_shards(graph, part)
        ):
            assert sliced.local_ids.tolist() == converted.local_ids.tolist()
            assert sliced.indptr.tolist() == converted.indptr.tolist()
            assert sliced.indices.tolist() == converted.indices.tolist()


class TestInProcessEquality:
    """In-process BSP on LFR: bit-identical to the sequential engines."""

    def test_rslpa_identical_on_lfr(self, small_lfr):
        graph = spread_ids(small_lfr.graph)
        state, stats = run_distributed_rslpa(
            graph.copy(), seed=7, iterations=20, num_workers=4
        )
        ref = ReferencePropagator(graph.copy(), seed=7)
        ref.propagate(20)
        assert_same_state(state, ref.state)
        assert stats_tuples(stats) == expected_rslpa_stats(
            ref.state, HashPartitioner(4), 20
        )

    def test_rslpa_csr_matches_sequential_reference(self, small_lfr):
        graph = small_lfr.graph
        state, _ = run_distributed_rslpa(
            graph.copy(), seed=7, iterations=20, num_workers=4
        )
        ref = ReferencePropagator(graph.copy(), seed=7)
        ref.propagate(20)
        assert_same_state(state, ref.state)

    def test_slpa_identical_on_lfr(self, small_lfr):
        graph = spread_ids(small_lfr.graph)
        memories, stats = run_distributed_slpa(
            graph.copy(), seed=11, iterations=12, num_workers=4
        )
        ref = SLPA(graph.copy(), seed=11, iterations=12)
        ref.propagate()
        assert memories == ref.memories
        assert stats_tuples(stats) == expected_slpa_stats(
            graph, HashPartitioner(4), 12
        )

    def test_results_are_plain_python_ints(self, small_lfr):
        """CSR arrays must not leak numpy scalars into collected state."""
        state, _ = run_distributed_rslpa(
            small_lfr.graph.copy(), seed=7, iterations=5, num_workers=3
        )
        sample = next(iter(state.labels))
        assert all(type(x) is int for x in state.labels[sample])
        assert all(type(x) is int for x in state.srcs[sample])

    def test_invalid_backend_rejected(self, cliques_ring):
        """The retired shard-storage axis is no longer a keyword."""
        with pytest.raises(TypeError, match="shard_backend"):
            run_distributed_rslpa(cliques_ring, shard_backend="dict")

    def test_invalid_backend_rejected_on_csr_input(self, cliques_ring):
        with pytest.raises(TypeError, match="shard_backend"):
            run_distributed_rslpa(
                CSRGraph.from_graph(cliques_ring), shard_backend="csr"
            )

    def test_update_on_spread_ids_matches_sequential(self):
        graph = spread_ids(erdos_renyi(40, 0.08, seed=5))
        seq_prop = ReferencePropagator(graph.copy(), seed=3)
        seq_prop.propagate(12)
        corrector = CorrectionPropagator(seq_prop)
        dist_graph = graph.copy()
        state, _ = run_distributed_rslpa(
            dist_graph, seed=3, iterations=12, num_workers=3
        )
        verts = sorted(graph.vertices())
        batches = [
            EditBatch.build(insertions=[(verts[0], verts[-1]), (verts[2], 999)]),
            EditBatch.build(deletions=[next(iter(graph.edges()))]),
        ]
        for epoch, batch in enumerate(batches, start=1):
            corrector.apply_batch(batch)
            dist_graph, state, _ = run_distributed_update(
                dist_graph, state, batch, seed=3, batch_epoch=epoch,
                num_workers=3,
            )
            assert state.labels == corrector.state.labels, epoch
            assert state.receivers == corrector.state.receivers, epoch

    def test_components_on_spread_ids(self):
        graph = spread_ids(erdos_renyi(40, 0.05, seed=8))
        found, _ = distributed_connected_components(graph, num_workers=3)
        expected = sorted(sorted(c) for c in graph.connected_components())
        assert sorted(sorted(c) for c in found) == expected


class TestUpdateAtomicity:
    """A rejected update must leave the caller's graph/state untouched."""

    def test_non_contiguous_batch_fails_before_mutation(self):
        graph = Graph.from_edges([(0, 1), (1, 2), (2, 3), (3, 0)])
        state, _ = run_distributed_rslpa(graph.copy(), seed=1, iterations=6)
        batch = EditBatch.build(insertions=[(0, 100)])
        edges_before = set(graph.edges())
        vertices_before = sorted(graph.vertices())
        with pytest.raises(ValueError, match="contiguous"):
            run_distributed_update(
                graph, state, batch, seed=1,
                config=ExecutionConfig(backend="fast", num_workers=2),
            )
        assert set(graph.edges()) == edges_before
        assert sorted(graph.vertices()) == vertices_before
        assert not state.has_vertex(100)


class TestMultiprocessEquality:
    """The true-parallelism backend agrees across shard build paths and
    stays bit-identical on non-contiguous ids over every transport."""

    def _run(self, shards, part, factory):
        with MultiprocessBSPEngine(shards, part, factory) as engine:
            stats = engine.run()
            results = engine.collect()
        return results, stats

    def test_rslpa_multiprocess_dict_vs_csr(self):
        graph = ring_of_cliques(4, 5)
        part = HashPartitioner(3)
        factory = partial(FastRSLPAPropagationProgram, seed=5, iterations=12)
        converted, c_stats = self._run(converted_shards(graph, part), part, factory)
        sliced, s_stats = self._run(build_csr_shards(graph, part), part, factory)
        for (c_ids, *c_mats), (s_ids, *s_mats) in zip(converted, sliced):
            assert c_ids.tolist() == s_ids.tolist()
            for c_mat, s_mat in zip(c_mats, s_mats):
                assert c_mat.tolist() == s_mat.tolist()
        assert stats_tuples(c_stats) == stats_tuples(s_stats)

    def test_slpa_multiprocess_dict_vs_csr(self):
        graph = ring_of_cliques(3, 5)
        part = HashPartitioner(3)
        factory = partial(FastSLPAPropagationProgram, seed=2, iterations=10)
        converted, c_stats = self._run(converted_shards(graph, part), part, factory)
        sliced, s_stats = self._run(build_csr_shards(graph, part), part, factory)
        assert converted == sliced
        assert stats_tuples(c_stats) == stats_tuples(s_stats)

    @pytest.mark.parametrize("transport", ["pipe", "shm", "tcp"])
    def test_spread_ids_every_transport(self, transport):
        graph = spread_ids(ring_of_cliques(3, 5))
        config = ExecutionConfig(
            num_workers=2, multiprocess=True, transport=transport,
            state_format="dict",
        )
        state, stats = run_distributed_rslpa(
            graph, seed=4, iterations=8, config=config
        )
        ref = ReferencePropagator(graph.copy(), seed=4)
        ref.propagate(8)
        assert_same_state(state, ref.state)
        assert stats_tuples(stats) == expected_rslpa_stats(
            ref.state, HashPartitioner(2), 8
        )
        memories, slpa_stats = run_distributed_slpa(
            graph, seed=4, iterations=6, config=config
        )
        ref_slpa = SLPA(graph.copy(), seed=4, iterations=6)
        ref_slpa.propagate()
        assert memories == ref_slpa.memories
        assert stats_tuples(slpa_stats) == expected_slpa_stats(
            graph, HashPartitioner(2), 6
        )
