"""Seeded workload inputs, generated once per (workload, seed) and cached.

Every input comes from ``repro.workloads``: ``generate_webgraph`` for the
graph and ``EditStream`` for edits.  Generation is kept out of every timed
metric twice over: it runs in its own process (so it neither warms the
measuring process's caches nor counts in its peak RSS), and its output is
cached under ``perfbench/.cache`` so a repeated seed skips it entirely.
The measuring process sees only the generated arrays and files.

Run as a script to fill the cache for one workload::

    PYTHONPATH=src python3 perfbench/inputs.py --workload ingest --seed 3
"""

from __future__ import annotations

import argparse
import os
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
CACHE_DIR = BENCH_DIR / ".cache" / "inputs"

#: Bumped whenever a spec below changes, so stale cache files are ignored.
VERSION = 3

#: Edits per ``EditStream`` batch for the ingest trace.  Each stream batch
#: is sampled against the live graph and then arrives one edit at a time in
#: a seeded order (``EditStream.timed_edits``), i.e. 50 service windows per
#: stream batch.  A 100-edit stream batch would cost ~85 ms of sampling per
#: window at n=2e4 (the stream sorts all edges per batch), which makes an
#: uncached seed take a minute to generate.
INGEST_STREAM_BATCH = 5000

SPECS = {
    # n: vertices of the web-graph substitute.
    # edits: single edits in the ingest trace; batches: 100-edit batches.
    "static": {"n": 10_000},
    # 800 windows of 100 edits: ~3x what a 10 s run consumes on a quiet host.
    "ingest": {"n": 10_000, "edits": 80_000},
    # ~10x what a 10 s run consumes on a quiet host.
    "refresh": {"n": 5_000, "batches": 120, "batch_size": 100},
    "distributed": {"n": 10_000},
}


#: Seed of the refresh base graph and of its fit; ``--seed`` draws only
#: the refresh edit stream.  With the graph and fit seeds following
#: ``--seed``, some seeds' refreshes were 10-30% cheaper than others' in
#: every set of runs (the community count, whose square bounds the pairs
#: ``match_covers`` compares, ranged from 405 to 530 at n=5e3), a spread
#: of the inputs, not of the runs.  Seed 1 gives 449 communities.
REFRESH_BASE_SEED = 1


def cache_path(workload: str, seed: int) -> Path:
    return CACHE_DIR / f"{workload}-s{seed}-v{VERSION}.npz"


def edge_list_path(workload: str, seed: int) -> Path:
    return CACHE_DIR / f"{workload}-s{seed}-v{VERSION}.edges"


def _edge_array(graph) -> np.ndarray:
    edges = sorted(graph.edges())
    return np.array(edges, dtype=np.int64).reshape(len(edges), 2)


def generate(workload: str, seed: int) -> None:
    """Generate and atomically publish the inputs of one (workload, seed)."""
    from repro.graph.io import write_edge_list
    from repro.workloads import EditStream, WebGraphParams, generate_webgraph

    spec = SPECS[workload]
    graph_seed = REFRESH_BASE_SEED if workload == "refresh" else seed
    graph = generate_webgraph(WebGraphParams(n=spec["n"]), seed=graph_seed).graph
    arrays = {"n": np.array(spec["n"]), "edges": _edge_array(graph)}
    if workload == "ingest":
        stream = EditStream(graph, INGEST_STREAM_BATCH, seed=seed, rate=1.0)
        trace = list(stream.timed_edits(spec["edits"]))
        arrays["edit_insert"] = np.array([op == "+" for _, op, _, _ in trace])
        arrays["edit_uv"] = np.array([(u, v) for _, _, u, v in trace], dtype=np.int64)
    elif workload == "refresh":
        stream = EditStream(graph, spec["batch_size"], seed=seed)
        rows = []
        for index, batch in enumerate(stream.take(spec["batches"])):
            rows += [(index, 1, u, v) for u, v in sorted(batch.insertions)]
            rows += [(index, 0, u, v) for u, v in sorted(batch.deletions)]
        arrays["batch_rows"] = np.array(rows, dtype=np.int64)
    CACHE_DIR.mkdir(parents=True, exist_ok=True)
    if workload == "static":
        target = edge_list_path(workload, seed)
        tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
        write_edge_list(graph, str(tmp))
        os.replace(tmp, target)
    target = cache_path(workload, seed)
    tmp = target.with_name(f"{target.name}.{os.getpid()}.tmp")
    with open(tmp, "wb") as handle:
        np.savez(handle, **arrays)
    os.replace(tmp, target)


def is_cached(workload: str, seed: int) -> bool:
    if workload == "static" and not edge_list_path(workload, seed).exists():
        return False
    return cache_path(workload, seed).exists()


def load(workload: str, seed: int) -> dict:
    """The cached arrays of one (workload, seed) as a plain dict."""
    with np.load(cache_path(workload, seed)) as arrays:
        data = {key: arrays[key] for key in arrays.files}
    data["n"] = int(data["n"])
    if workload == "static":
        data["edge_list"] = str(edge_list_path(workload, seed))
    return data


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SPECS))
    parser.add_argument("--seed", required=True, type=int)
    args = parser.parse_args()
    generate(args.workload, args.seed)


if __name__ == "__main__":
    main()
