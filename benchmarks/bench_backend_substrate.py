"""Backend substrate benchmark — reference vs CSR-backed paths on LFR.

Times the three layers the shared CSR substrate accelerates and records the
numbers in ``BENCH_backends.json`` at the repository root, so the perf
trajectory of the array substrate is tracked across PRs:

1. **builder** — the legacy per-vertex Python fill loop (the duplicated
   builder this refactor deleted, re-inlined here as the baseline) vs the
   vectorised :func:`repro.graph.csr.build_csr_arrays`;
2. **propagation** — pure-Python :class:`ReferencePropagator` vs the
   CSR-backed :class:`FastPropagator`, and reference :class:`SLPA` vs
   :class:`FastSLPA`, on the Table-I LFR instance;
3. **sharding** — :func:`build_csr_shards` from the mutable graph
   (snapshot + slice) vs from a ready CSR snapshot (slice only).

Run:  PYTHONPATH=src:. python -m pytest benchmarks/bench_backend_substrate.py -q
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from benchmarks.bench_common import SCALE, banner, print_table, scaled
from repro.baselines.slpa import SLPA
from repro.baselines.slpa_fast import FastSLPA
from repro.core.fast import FastPropagator
from repro.core.rslpa import ReferencePropagator
from repro.distributed.worker import build_csr_shards
from repro.graph.csr import CSRGraph, build_csr_arrays
from repro.graph.partition import HashPartitioner
from repro.workloads.lfr import LFRParams, generate_lfr

RESULT_PATH = Path(__file__).resolve().parent.parent / "BENCH_backends.json"

RSLPA_T = scaled(40, 100, 200)
SLPA_T = scaled(20, 50, 100)
NUM_WORKERS = 4


def _legacy_graph_to_csr(graph):
    """The pre-refactor per-vertex fill loop (kept only as a baseline)."""
    n = graph.num_vertices
    indptr = np.zeros(n + 1, dtype=np.int64)
    for v in range(n):
        indptr[v + 1] = indptr[v] + graph.degree(v)
    indices = np.empty(int(indptr[-1]), dtype=np.int64)
    for v in range(n):
        nbrs = sorted(graph.neighbors_view(v))
        indices[indptr[v] : indptr[v + 1]] = nbrs
    return indptr, indices


def _timed(fn, repeats=3):
    """Best-of-N wall time plus the last return value."""
    best, value = float("inf"), None
    for _ in range(repeats):
        t0 = time.perf_counter()
        value = fn()
        best = min(best, time.perf_counter() - t0)
    return best, value


def test_backend_substrate(benchmark, report, default_lfr):
    graph = default_lfr.graph
    n, m = graph.num_vertices, graph.num_edges
    results = {}

    def run_all():
        # --- 1. CSR builder: legacy loop vs vectorised ------------------
        t_legacy, legacy = _timed(lambda: _legacy_graph_to_csr(graph))
        t_vector, vector = _timed(lambda: build_csr_arrays(graph))
        assert np.array_equal(legacy[0], vector[0])
        assert np.array_equal(legacy[1], vector[1])
        results["builder"] = {
            "legacy_loop_s": t_legacy,
            "vectorized_s": t_vector,
            "speedup": t_legacy / t_vector if t_vector else float("inf"),
        }

        csr = CSRGraph.from_graph(graph)

        # --- 2. propagation: reference vs CSR-backed engines ------------
        def run_reference_rslpa():
            ref = ReferencePropagator(graph.copy(), seed=1)
            ref.propagate(RSLPA_T)

        def run_fast_rslpa():
            fast = FastPropagator(csr, seed=1)
            fast.propagate(RSLPA_T)

        t_ref, _ = _timed(run_reference_rslpa, repeats=1)
        t_fast, _ = _timed(run_fast_rslpa, repeats=1)
        results["rslpa"] = {
            "iterations": RSLPA_T,
            "reference_s": t_ref,
            "csr_fast_s": t_fast,
            "speedup": t_ref / t_fast if t_fast else float("inf"),
        }

        def run_reference_slpa():
            slpa = SLPA(graph.copy(), seed=1, iterations=SLPA_T)
            slpa.propagate()

        def run_fast_slpa():
            fast = FastSLPA(csr, seed=1, iterations=SLPA_T)
            fast.propagate()

        t_ref_slpa, _ = _timed(run_reference_slpa, repeats=1)
        t_fast_slpa, _ = _timed(run_fast_slpa, repeats=1)
        results["slpa"] = {
            "iterations": SLPA_T,
            "reference_s": t_ref_slpa,
            "csr_fast_s": t_fast_slpa,
            "speedup": t_ref_slpa / t_fast_slpa if t_fast_slpa else float("inf"),
        }

        # --- 3. sharding: from the graph vs from a ready snapshot -------
        part = HashPartitioner(NUM_WORKERS)
        t_graph, _ = _timed(lambda: build_csr_shards(graph, part))
        t_csr, _ = _timed(lambda: build_csr_shards(csr, part))
        results["sharding"] = {
            "num_workers": NUM_WORKERS,
            "graph_shards_s": t_graph,
            "csr_shards_s": t_csr,
        }
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)

    report(
        banner(
            "Backend substrate: reference vs CSR-backed paths (LFR Table I)",
            "internal perf-trajectory benchmark (no paper counterpart)",
            "vectorised builder and CSR engines ahead of the Python loops",
        )
    )
    report(f"LFR instance: |V|={n}, |E|={m}")
    print_table(
        report,
        ["stage", "reference (s)", "CSR path (s)", "speedup"],
        [
            ("csr build", round(results["builder"]["legacy_loop_s"], 4),
             round(results["builder"]["vectorized_s"], 4),
             f"{results['builder']['speedup']:.1f}x"),
            (f"rSLPA T={RSLPA_T}", round(results["rslpa"]["reference_s"], 3),
             round(results["rslpa"]["csr_fast_s"], 3),
             f"{results['rslpa']['speedup']:.1f}x"),
            (f"SLPA T={SLPA_T}", round(results["slpa"]["reference_s"], 3),
             round(results["slpa"]["csr_fast_s"], 3),
             f"{results['slpa']['speedup']:.1f}x"),
            (f"shard x{NUM_WORKERS}", round(results["sharding"]["graph_shards_s"], 4),
             round(results["sharding"]["csr_shards_s"], 4), "-"),
        ],
    )

    payload = {
        "benchmark": "backend_substrate",
        "scale": SCALE,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "graph": {"kind": "lfr_table1", "num_vertices": n, "num_edges": m},
        "results": results,
    }
    RESULT_PATH.write_text(json.dumps(payload, indent=2) + "\n", encoding="utf-8")
    report(f"results recorded in {RESULT_PATH}")

    # Shape assertions: the substrate must actually pay for itself.
    assert results["builder"]["vectorized_s"] < results["builder"]["legacy_loop_s"]
    assert results["rslpa"]["csr_fast_s"] < results["rslpa"]["reference_s"]
    assert results["slpa"]["csr_fast_s"] < results["slpa"]["reference_s"]


if __name__ == "__main__":  # pragma: no cover - ad-hoc run without pytest
    params = LFRParams(n=1000, avg_degree=16.0, max_degree=40, mu=0.1,
                       overlap_fraction=0.1, overlap_membership=2)
    lfr = generate_lfr(params, seed=42)

    class _Bench:
        @staticmethod
        def pedantic(fn, rounds=1, iterations=1):
            fn()

    test_backend_substrate(_Bench(), print, lfr)
