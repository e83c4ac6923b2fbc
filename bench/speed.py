"""Timings scaled to a fixed host speed.

A shared box runs the same code tens of percent faster or slower from one
moment to the next, in CPU time as much as in wall time: on a 2-core
x86_64 VM, a fixed pure-Python loop timed every 64 ms for a minute had a
standard deviation of 20 % (log scale), its readings were still
correlated a second apart, and a detect call timed between the readings
moved with them. Runs of the same code a minute apart then disagree by as
much, however many samples each run takes.

So every timed call is scaled by the host speed measured while it ran: a
``Clock`` times a short fixed loop on the calling thread just before and
just after the call, and on a probe thread every ``PROBE_PERIOD_S`` in
between, and multiplies the call's seconds by ``REF_STEP_S`` over the
median seconds per loop step of those readings: the seconds the call
would have taken at the speed at which one loop step takes
``REF_STEP_S``. On the same VM the standard deviation of 1.4-second
detect calls fell from 0.15 to 0.05 this way (0.14 with the readings
before and after alone), and over 25-second windows of five minutes the
medians of detect calls on paper and toy inputs spread 0.39 and 0.45 raw
(as a share of their median, between quartiles), 0.05 and 0.10 scaled.
A loop that also read a 16 MiB table at scattered offsets, to feel
contention for cache and memory, did worse (0.08 and 0.13).

The loop is the benchmark's own code, the same on every commit, and it
allocates no object the cyclic collector tracks, so a change to the
program moves a scaled time as it moves the raw one. The probe holds the
interpreter lock for about 1 % of the time, on every commit alike. Raw
times are kept beside the scaled ones.
"""

from __future__ import annotations

import threading
import time
from statistics import median

LOOP_STEPS = 1_000
# Scaled times are given at the host speed at which one loop step takes
# this long, about the median on the VM above, so that scaled and raw
# figures are of the same size there.
REF_STEP_S = 1.85e-7
PROBE_PERIOD_S = 0.01


def step_seconds() -> float:
    """Seconds per step of a fixed run of integer arithmetic and dict stores."""
    t0 = time.perf_counter()
    table: dict[int, int] = {}
    total = 0
    for i in range(LOOP_STEPS):
        total += i * i % 7
        table[i & 255] = total
    return (time.perf_counter() - t0) / LOOP_STEPS


def bracket_reading() -> float:
    """Median of five loop readings taken on the calling thread."""
    return sorted(step_seconds() for _ in range(5))[2]


class Clock:
    """Times calls, each scaled by the host speed measured while it ran.

    Use as a context manager, which starts and stops the probe thread.
    With ``scaled=False`` no loop runs and times are raw; traced runs use
    that, since their figures are shares of one pass.
    """

    def __init__(self, scaled: bool = True):
        self.scaled = scaled
        self.raw: dict[str, list[float]] = {}
        self.samples: dict[str, list[float]] = {}
        self.probes: list[tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._probe, name="speed-probe", daemon=True)

    def __enter__(self) -> Clock:
        if self.scaled:
            self._thread.start()
        return self

    def __exit__(self, *exc) -> None:
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join()

    def _probe(self) -> None:
        while not self._stop.wait(PROBE_PERIOD_S):
            step = step_seconds()
            self.probes.append((time.perf_counter(), step))

    def start(self) -> tuple[float, float]:
        before = bracket_reading() if self.scaled else REF_STEP_S
        return before, time.perf_counter()

    def scale(self, mark: tuple[float, float]) -> float:
        """Factor from raw to scaled seconds for the interval since ``mark``."""
        end = time.perf_counter()
        if not self.scaled:
            return 1.0
        readings = [mark[0]]
        for t, step in reversed(self.probes):
            if t < mark[1]:
                break
            if t <= end:
                readings.append(step)
        readings.append(bracket_reading())
        return REF_STEP_S / median(readings)

    def stop(self, mark: tuple[float, float], key: str) -> float:
        """Scaled seconds since ``mark``, recorded under ``key``."""
        elapsed = time.perf_counter() - mark[1]
        factor = self.scale(mark)
        self.add(key, elapsed, factor)
        return elapsed * factor

    def add(self, key: str, raw: float, factor: float) -> None:
        self.raw.setdefault(key, []).append(raw)
        self.samples.setdefault(key, []).append(raw * factor)

    def summary(self) -> dict:
        steps = [s for _, s in self.probes]
        if not steps:
            return {}
        return {"probe_step_ns_median": 1e9 * median(steps),
                "probe_step_ns_min": 1e9 * min(steps), "probe_step_ns_max": 1e9 * max(steps),
                "probes": len(steps)}
