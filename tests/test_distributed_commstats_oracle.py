"""Per-superstep CommStats against oracles derived from the core engines.

The expected counters come from the sequential state alone
(:mod:`comm_oracle`): rSLPA sends one ``req`` and one ``lab`` per
non-isolated vertex per iteration, remote iff the picked source's owner
differs from the vertex's; SLPA sends one ``spk`` per directed edge,
remote iff the edge is cut; bytes are the schema size times the count.
The hypothesis property sweeps partitioners × workers × in-process /
multiprocess, and every barrier of those runs is also checked against the
per-message routing oracle — as are the scalar ``corr`` / ``fetch`` /
``set`` kinds that Correction Propagation and Hash-to-Min send through
the tuple adapter.
"""

from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from comm_oracle import (
    checked_route_columns,
    expected_rslpa_stats,
    expected_slpa_stats,
    stats_tuples,
)
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
from repro.graph.adjacency import Graph
from repro.graph.generators import erdos_renyi
from repro.graph.partition import ContiguousPartitioner, HashPartitioner
from repro.workloads.dynamic import random_edit_batch

ITERATIONS = 5


@st.composite
def oracle_cases(draw):
    """(graph, partitioner, multiprocess) over either id layout."""
    n = draw(st.integers(2, 10))
    edges = draw(
        st.sets(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda e: e[0] < e[1]
            ),
            max_size=n * 2,
        )
    )
    scale = draw(st.sampled_from([1, 3]))  # 3: ids are not 0..n-1
    graph = Graph.from_edges(
        [(u * scale, v * scale) for u, v in edges],
        vertices=[v * scale for v in range(n)],
    )
    workers = draw(st.integers(1, 3))
    if draw(st.booleans()):
        part = HashPartitioner(workers, salt=draw(st.integers(0, 3)))
    else:
        part = ContiguousPartitioner(workers, n * scale)
    multiprocess = draw(st.booleans())
    return graph, part, multiprocess


def _config(part, multiprocess):
    return ExecutionConfig(
        num_workers=part.num_partitions,
        partitioner=part,
        multiprocess=multiprocess,
        state_format="dict",
    )


def _checked(multiprocess):
    """Patch the barrier the run will use with the per-message oracle."""
    module = (
        "repro.distributed.multiprocess"
        if multiprocess
        else "repro.distributed.engine_array"
    )
    return mock.patch(f"{module}.route_columns", checked_route_columns())


oracle_settings = settings(
    max_examples=12,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


class TestCommStatsOracle:
    @oracle_settings
    @given(oracle_cases(), st.integers(0, 3))
    def test_rslpa_stats_match_core_oracle(self, case, seed):
        graph, part, multiprocess = case
        ref = ReferencePropagator(graph.copy(), seed=seed)
        ref.propagate(ITERATIONS)
        with _checked(multiprocess):
            state, stats = run_distributed_rslpa(
                graph, seed=seed, iterations=ITERATIONS,
                config=_config(part, multiprocess),
            )
        assert state.labels == ref.state.labels
        assert state.receivers == ref.state.receivers
        assert stats_tuples(stats) == expected_rslpa_stats(
            ref.state, part, ITERATIONS
        )

    @oracle_settings
    @given(oracle_cases(), st.integers(0, 3))
    def test_slpa_stats_match_core_oracle(self, case, seed):
        graph, part, multiprocess = case
        ref = SLPA(graph.copy(), seed=seed, iterations=ITERATIONS)
        ref.propagate()
        with _checked(multiprocess):
            memories, stats = run_distributed_slpa(
                graph, seed=seed, iterations=ITERATIONS,
                config=_config(part, multiprocess),
            )
        assert memories == ref.memories
        assert stats_tuples(stats) == expected_slpa_stats(graph, part, ITERATIONS)

    def test_multiprocess_stats_equal_in_process(self):
        graph = erdos_renyi(30, 0.1, seed=4)
        part = HashPartitioner(3)
        for transport in ("pipe", "shm", "tcp"):
            config = ExecutionConfig(
                num_workers=3, multiprocess=True, transport=transport
            )
            _, mp_stats = run_distributed_rslpa(
                graph, seed=2, iterations=6, config=config
            )
            _, ip_stats = run_distributed_rslpa(
                graph, seed=2, iterations=6, num_workers=3, partitioner=part
            )
            assert stats_tuples(mp_stats) == stats_tuples(ip_stats), transport


class TestScalarKindsThroughRouteOracle:
    """The adapter-run kinds pass the per-message routing oracle too."""

    def test_correction_kinds(self):
        graph = erdos_renyi(50, 0.08, seed=6)
        seq_prop = ReferencePropagator(graph.copy(), seed=1)
        seq_prop.propagate(10)
        corrector = CorrectionPropagator(seq_prop)
        dist_graph = graph.copy()
        dist_prop = ReferencePropagator(dist_graph, seed=1)
        dist_prop.propagate(10)
        state = dist_prop.state
        seen = set()
        with mock.patch(
            "repro.distributed.engine_array.route_columns",
            checked_route_columns(seen),
        ):
            for epoch in range(1, 5):
                batch = random_edit_batch(seq_prop.graph, 8, seed=epoch)
                corrector.apply_batch(batch)
                dist_graph, state, _ = run_distributed_update(
                    dist_graph, state, batch, seed=1, batch_epoch=epoch,
                    num_workers=3,
                )
                assert state.labels == corrector.state.labels
        assert {"corr", "fetch"} <= seen

    def test_hash_to_min_kinds(self):
        graph = erdos_renyi(40, 0.06, seed=9)
        seen = set()
        with mock.patch(
            "repro.distributed.engine_array.route_columns",
            checked_route_columns(seen),
        ):
            found, _ = distributed_connected_components(graph, num_workers=3)
        assert seen == {"set"}
        expected = sorted(sorted(c) for c in graph.connected_components())
        assert sorted(sorted(c) for c in found) == expected
