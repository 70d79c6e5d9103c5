"""Tests for the vectorised propagator — bit-equality with the reference."""

import numpy as np
import pytest

from repro.core.fast import FastPropagator
from repro.core.rslpa import ReferencePropagator
from repro.graph.adjacency import Graph
from repro.graph.csr import build_csr_arrays
from repro.graph.generators import erdos_renyi, ring_of_cliques


class TestCSR:
    def test_sorted_adjacency(self, cliques_ring):
        indptr, indices = build_csr_arrays(cliques_ring)
        for v in cliques_ring.vertices():
            nbrs = indices[indptr[v] : indptr[v + 1]].tolist()
            assert nbrs == sorted(cliques_ring.neighbors_view(v))

    def test_requires_contiguous_ids(self):
        g = Graph.from_edges([(0, 5)])
        with pytest.raises(ValueError, match="contiguous"):
            build_csr_arrays(g)

    def test_empty_graph(self):
        indptr, indices = build_csr_arrays(Graph())
        assert indptr.tolist() == [0]
        assert len(indices) == 0


class TestBitEquality:
    @pytest.mark.parametrize("seed", [0, 1, 17])
    def test_matches_reference_on_cliques(self, seed):
        g = ring_of_cliques(4, 5)
        ref = ReferencePropagator(g.copy(), seed=seed)
        ref.propagate(30)
        fast = FastPropagator(g.copy(), seed=seed)
        fast.propagate(30)
        for v in range(g.num_vertices):
            assert fast.labels[:, v].tolist() == ref.state.labels[v]
            assert fast.srcs[:, v].tolist() == ref.state.srcs[v]
            assert fast.poss[:, v].tolist() == ref.state.poss[v]

    def test_matches_reference_on_random_graph_with_isolated(self):
        g = erdos_renyi(40, 0.05, seed=3)  # likely has degree-0 vertices
        ref = ReferencePropagator(g.copy(), seed=9)
        ref.propagate(20)
        fast = FastPropagator(g.copy(), seed=9)
        fast.propagate(20)
        for v in range(40):
            assert fast.labels[:, v].tolist() == ref.state.labels[v]

    def test_incremental_horizon_matches(self):
        g = ring_of_cliques(3, 4)
        once = FastPropagator(g.copy(), seed=2)
        once.propagate(24)
        twice = FastPropagator(g.copy(), seed=2)
        twice.propagate(10)
        twice.propagate(14)
        assert np.array_equal(once.labels, twice.labels)


class TestExport:
    def test_to_label_state_validates(self, cliques_ring):
        fast = FastPropagator(cliques_ring, seed=5)
        fast.propagate(15)
        state = fast.to_label_state()
        state.validate(cliques_ring)
        assert state.num_iterations == 15

    def test_to_label_state_equals_reference_state(self, cliques_ring):
        fast = FastPropagator(cliques_ring.copy(), seed=5)
        fast.propagate(15)
        ref = ReferencePropagator(cliques_ring.copy(), seed=5)
        ref.propagate(15)
        exported = fast.to_label_state()
        assert exported.labels == ref.state.labels
        assert exported.receivers == ref.state.receivers

    def test_zero_degree_export(self):
        g = Graph.from_edges([(0, 1)], vertices=[2])
        fast = FastPropagator(g, seed=1)
        fast.propagate(8)
        state = fast.to_label_state()
        state.validate(g)
        assert state.labels[2] == [2] * 9

    def test_to_array_state_equals_dict_export(self, cliques_ring):
        fast = FastPropagator(cliques_ring, seed=5)
        fast.propagate(15)
        dict_state = fast.to_label_state()
        array_state = fast.to_array_state()
        back = array_state.to_label_state()
        assert back.labels == dict_state.labels
        assert back.srcs == dict_state.srcs
        assert back.poss == dict_state.poss
        assert back.epochs == dict_state.epochs
        assert back.receivers == dict_state.receivers
        array_state.validate(cliques_ring)

    def test_to_array_state_owns_its_matrices(self, cliques_ring):
        fast = FastPropagator(cliques_ring, seed=5)
        fast.propagate(10)
        array_state = fast.to_array_state()
        array_state.labels[1, 0] = -99  # must not write through to the engine
        assert fast.labels[1, 0] != -99

    def test_to_array_state_zero_degree(self):
        g = Graph.from_edges([(0, 1)], vertices=[2])
        fast = FastPropagator(g, seed=1)
        fast.propagate(8)
        array_state = fast.to_array_state()
        array_state.validate(g)
        assert array_state.labels[:, 2].tolist() == [2] * 9


class TestEdgeCases:
    def test_edgeless_graph(self):
        g = Graph.from_edges((), vertices=range(5))
        fast = FastPropagator(g, seed=0)
        fast.propagate(6)
        for v in range(5):
            assert fast.labels[:, v].tolist() == [v] * 7

    def test_zero_iterations(self, cliques_ring):
        fast = FastPropagator(cliques_ring, seed=0)
        fast.propagate(0)
        assert fast.num_iterations == 0

    def test_rejects_negative(self, cliques_ring):
        with pytest.raises(ValueError):
            FastPropagator(cliques_ring, seed=0).propagate(-3)
