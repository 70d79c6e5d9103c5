"""Whole-pipeline benchmark of the rSLPA library: one command, four workloads.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload ingest --seed 3 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 3 --seconds 10 --trace 0

Workloads (see ``perfbench/README.md`` for why each exists):
``static``, ``ingest``, ``refresh``, ``distributed``.

For one workload the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (which
also writes ``perfbench/out/layers-<workload>-s<seed>.json``).  The lines
before it name every metric with its unit and what it measures.  The exit
code is 1 when a correctness check fails and 2 when the run cannot start
or does not finish.

Each workload runs in a fresh process, so peak RSS and warm caches never
leak between workloads; inputs are generated (or taken from the cache) in
another process before it starts.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import inputs

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("static", "ingest", "refresh", "distributed")
#: A run must end within 180 s; this leaves room for start-up and clean-up.
DEADLINE_S = 170.0


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    # numpy's BLAS/OpenMP pools stay at one thread, so the driver plus two
    # workers never ask for more cores than a 2-CPU box has.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, timeout: float, capture: bool) -> subprocess.CompletedProcess:
    """Run a Python child in its own process group and reap the whole group.

    On timeout the group is killed, so multiprocess workers of the child
    never outlive the run.
    """
    proc = subprocess.Popen(
        [sys.executable, *args],
        cwd=str(ROOT),
        env=child_env(),
        stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
        text=True,
        start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, timeout))
    finally:
        # Also on timeout or SIGTERM: no process of the group outlives us.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
        proc.wait()
    return subprocess.CompletedProcess(proc.args, proc.returncode, out, None)


def run_workload(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    if not inputs.is_cached(workload, seed):
        done = run_child(
            [str(BENCH_DIR / "inputs.py"), "--workload", workload, "--seed", str(seed)],
            deadline - time.monotonic(), capture=False,
        )
        if done.returncode != 0:
            raise RuntimeError(f"input generation for {workload} failed")
    workdir = BENCH_DIR / ".cache" / f"run-{os.getpid()}-{workload}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    artefact = BENCH_DIR / "out" / f"layers-{workload}-s{seed}.json"
    try:
        done = run_child(
            [str(BENCH_DIR / "workloads.py"), "--workload", workload, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace),
             "--workdir", str(workdir), "--artefact", str(artefact)],
            deadline - time.monotonic(), capture=True,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise RuntimeError(f"workload {workload} exited with code {done.returncode}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description="Whole-pipeline rSLPA benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()
    # SIGTERM unwinds through run_child's clean-up like any other exit.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(2))
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    if args.workload == "all":
        deadline += DEADLINE_S * (len(names) - 1)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(name, args.seed, args.seconds, args.trace, deadline)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for result in results.values():
        for line in result["lines"]:
            print(line)
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{metric}": value
                for name, r in results.items()
                for metric, value in r["metrics"].items()
            },
        }
    else:
        final = {key: results[args.workload][key] for key in ("correct", "attempted", "failed", "metrics")}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
