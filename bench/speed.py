"""Machine-speed probe: what a shared box's noise does to a fixed kernel.

The sandbox this benchmark runs in shares its cores, and its speed moves in
plateaus of seconds to minutes.  Over ten consecutive 15 s runs of each
workload at one commit, the wall-clock medians had interquartile spreads of
13% to 25% (p50) and 19% to 37% (p90) of their median; neither a median
inside a run nor the quietest window of a run removes that, and the largest
regression bound the benchmark may state is 25%.  Across runs a workload's
median latency and the median time of the small fixed kernel below
correlate at 0.83 to 0.96: most of the noise is the machine's speed, not the
program's.

:class:`SpeedProbe` times that kernel in short bursts between operations,
outside every timer.  :meth:`SpeedProbe.slowdown_at` gives, for any instant
of the run, how much slower than the reference the machine was around then;
the report divides each latency by it.  The end-to-end times therefore read
"at reference machine speed"; the wall-clock values as measured are reported
beside them (``bench.raw_*`` and ``bench.machine_slowdown`` among the
per-layer metrics), so a change that slows the kernel itself — a background
thread, memory pressure — shows as the two disagreeing.

What the probe cannot correct: time spent waiting on the disk
(``durable_churn``'s fsyncs) is scaled by a CPU factor like everything else.
"""

from __future__ import annotations

import time
from typing import List, Sequence

import numpy as np

#: Kernel time (ms) that counts as slowdown 1.0.  A unit definition, not a
#: measurement to keep up to date: only ratios between runs are compared.  It
#: is the kernel's median on the box of the first baseline in a quiet period,
#: so that reported times read close to wall clock there.
REFERENCE_MS = 0.135
#: Kernel samples within this many seconds of an instant describe it.
WINDOW_S = 0.75
#: ...but never fewer than this many of the nearest samples.
MIN_SAMPLES = 9
#: A burst of this many samples (after one unrecorded pass)...
BURST = 8
#: ...at most this often, so back-to-back operations mostly run undisturbed
#: (1.3% of the phase).  Over ten seeds, samples every 0.1 s held the spread
#: of ``cold_plans``'s p90 at 3%, every 0.2 s at 6%; every 0.05 s gained
#: nothing more.
EVERY_S = 0.1


class SpeedProbe:
    """Times a fixed python + numpy kernel; about 0.14 ms a sample."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._values = rng.random(20_000)
        self._index = rng.integers(0, 20_000, 8_000)
        self.instants: List[float] = []
        self.durations: List[float] = []
        #: Seconds spent sampling so far: wall the workload did not use.
        self.spent_s = 0.0
        self._due = 0.0

    def sample(self, count: int = BURST, unrecorded: int = 1) -> None:
        """Run the kernel ``count`` times, recording when and how long.

        ``unrecorded`` extra passes run first: the first pass after other
        work pays for cold caches, not for the noise this probe is after.
        """
        values, index = self._values, self._index
        begun = time.perf_counter()
        for position in range(unrecorded + count):
            started = time.perf_counter()
            total = 0
            for i in range(1500):  # interpreter-bound share
                total += i * i
            gathered = values[index]  # memory-bound share
            (gathered < 0.5).sum()
            np.cumsum(gathered)
            ended = time.perf_counter()
            if position >= unrecorded:
                self.instants.append(ended)
                self.durations.append(ended - started)
        self._due = ended + EVERY_S
        self.spent_s += ended - begun

    def sample_if_due(self) -> None:
        if time.perf_counter() >= self._due:
            self.sample()

    def slowdown(self) -> float:
        """Median slowdown over everything sampled so far (1.0 if nothing)."""
        if not self.durations:
            return 1.0
        return float(np.median(self.durations)) * 1000.0 / REFERENCE_MS

    def slowdown_at(self, instants: Sequence[float]) -> np.ndarray:
        """Slowdown around each instant: median of the samples near it."""
        if not self.durations:
            return np.ones(len(instants))
        when = np.asarray(self.instants)
        took = np.asarray(self.durations)
        result = np.empty(len(instants))
        for position, instant in enumerate(instants):
            low = int(np.searchsorted(when, instant - WINDOW_S))
            high = int(np.searchsorted(when, instant + WINDOW_S))
            if high - low < MIN_SAMPLES:
                centre = int(np.searchsorted(when, instant))
                low = max(0, centre - MIN_SAMPLES // 2)
                high = min(len(when), low + MIN_SAMPLES)
                low = max(0, high - MIN_SAMPLES)
            result[position] = np.median(took[low:high])
        return result * 1000.0 / REFERENCE_MS
