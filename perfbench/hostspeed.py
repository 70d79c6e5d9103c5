"""Host-speed probe: a fixed unit of work timed between the program's ops.

The benchmark runs on shared virtual machines.  Other tenants' load moves
the speed of the whole VM by up to 2.5x, over seconds as well as minutes,
with no steal time visible inside it, so CPU time is as slow as wall time
and no in-run median can cancel the drift between two sets of runs.  The
probe measures that drift from inside the run.  Its work is a fixed mix of
what the program's layers do: Jaccard similarities of small integer sets
(the shape of cover matching and extraction), an integer loop (the
interpreter) and a numpy sort.  It uses nothing from ``repro``, so no
change to the program changes the probe's work.

The benchmark probes right before every timed op (every
``PROBE_EVERY`` windows on ``ingest``), and a gated timing is the median
over its ops of ``wall time * REFERENCE_MS / the probe before it``: the
time the op would take on a host where the probe takes ``REFERENCE_MS``.
The host's speed moves within seconds, so the probe next to an op tracks
it better than the run's median probe does (two kinds of op use another
probe, see :class:`Series`).  The raw wall times are printed beside the
scaled ones.

The probe runs in the measuring process between ops, when the program is
idle; a change that kept a thread of that process busy there would slow
the probe and partly hide itself.  The ``host_probe_ms`` lines, compared
across commits, show that.
"""

from __future__ import annotations

import statistics
from time import perf_counter

import numpy as np

#: Set pairs per probe, with the sets' count, size and id range.
PAIRS = 10_000
SETS, SET_SIZE, ID_RANGE = 2_000, 20, 5_000
#: Integer-loop steps and sorted floats per probe.
LOOP = 150_000
SORTED = 200_000
#: About the probe's median on a quiet host of the machine in
#: ``README.md``, so scaled timings read close to quiet-host wall times.
#: It sets only the scale: a ratio of two runs does not depend on it.
REFERENCE_MS = 25.0


class HostProbe:
    def __init__(self) -> None:
        # A fixed seed: the probe's work never depends on the workload seed.
        rng = np.random.default_rng(20180416)
        self.sets = [
            frozenset(rng.integers(0, ID_RANGE, SET_SIZE).tolist()) for _ in range(SETS)
        ]
        self.pairs = rng.integers(0, SETS, (PAIRS, 2)).tolist()
        self.floats = rng.random(SORTED)
        self.samples = []

    def _work(self) -> float:
        sets = self.sets
        total = 0.0
        for i, j in self.pairs:
            a, b = sets[i], sets[j]
            total += len(a & b) / len(a | b)
        for step in range(LOOP):
            total += step * step
        np.sort(self.floats)
        return total

    def sample(self) -> None:
        started = perf_counter()
        self._work()
        self.samples.append(perf_counter() - started)

    def median_ms(self) -> float:
        return 1e3 * statistics.median(self.samples)

    def spread(self) -> float:
        """(Q3 - Q1) / median of the probes: how much the host moved in the run."""
        if len(self.samples) < 2:
            return 0.0
        q1, _, q3 = statistics.quantiles(self.samples, n=4)
        return (q3 - q1) / statistics.median(self.samples)

    def series(self, scale_by: str = "before") -> "Series":
        return Series(self, scale_by)


class Series:
    """Wall times of one kind of op, scaled by the probe nearest in time.

    ``scale_by`` says which probe that is:

    * ``"before"``: the probe right before the op (most ops);
    * ``"after"``: the next probe, for an op that follows a long one
      without a probe in between (refresh queries come seconds after the
      probe before the refresh, but milliseconds before the next probe);
    * ``"run"``: the run's median probe, for an op that keeps both CPUs
      busy (the multiprocess fit): a probe measures one CPU, and next to
      such an op it tracked the op worse than the median did.
    """

    def __init__(self, probe: HostProbe, scale_by: str) -> None:
        self.probe = probe
        self.scale_by = scale_by
        self.wall = []
        self.next_probe = []

    def add(self, seconds: float) -> None:
        self.wall.append(seconds)
        self.next_probe.append(len(self.probe.samples))

    def scaled(self) -> list:
        samples = self.probe.samples
        if self.scale_by == "run":
            probes = [statistics.median(samples)] * len(self.wall)
        elif self.scale_by == "after":
            probes = [samples[min(i, len(samples) - 1)] for i in self.next_probe]
        else:
            probes = [samples[i - 1] for i in self.next_probe]
        return [w * REFERENCE_MS / (1e3 * p) for w, p in zip(self.wall, probes)]

    def __len__(self) -> int:
        return len(self.wall)
