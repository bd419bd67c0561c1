"""A fixed probe of host speed, timed inside every benchmark instance.

On a shared host the speed a process gets changes by tens of percent within
a minute: identical instances of a workload here took anywhere from 9 to
15 s.  The probe is a fixed piece of pure Python in the style of shiftlab's
hot path (big-integer multiply and exact division, dict updates keyed by
tuples) that does not depend on shiftlab.  Timing it while the workload
runs, and rescaling the workload's seconds by it, removes most of the host's
drift from the benchmark's time metrics.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

# Seconds the probe takes on a 2-vCPU 2.0 GHz Xeon VM (from 0.26 to 0.5 ms
# there, from process to process).  Times are reported as seconds on a host
# where the probe takes this long.
PROBE_REFERENCE_S = 0.0003
PROBE_INTERVAL_S = 0.02
SETUP_PROBES = 60

_rng = random.Random(1)
_BIGS = [_rng.getrandbits(200) | 1 for _ in range(64)]


def probe_loop() -> int:
    acc: dict[tuple[int, int], int] = {}
    b = _BIGS
    for r in range(12):
        for i in range(0, 64, 2):
            key = (i, r & 3)
            acc[key] = acc.get(key, 0) + (b[i] * b[i + 1] - b[i - 1]) // b[i + 1]
    return len(acc)


def timed_probe() -> tuple[float, float]:
    start = time.perf_counter()
    probe_loop()
    return start, time.perf_counter()


def probe_now() -> float:
    """Median probe time over ``SETUP_PROBES`` back-to-back runs."""
    return statistics.median(
        end - start for start, end in (timed_probe() for _ in range(SETUP_PROBES))
    )


def at_reference(seconds: float, probe_s: float) -> float:
    """``seconds`` measured while the probe took ``probe_s``, on the reference host."""
    return seconds * PROBE_REFERENCE_S / probe_s


class HostProbe:
    """Times ``probe_loop`` every ``PROBE_INTERVAL_S`` while the block runs.

    The loop runs from a SIGALRM handler in the main thread, between the
    workload's own bytecodes, so its times follow the speed the host gives
    this process during the run.  ``on_sample(start, end)`` sees each run.
    """

    def __init__(self, on_sample=None):
        self._on_sample = on_sample
        self.samples: list[float] = []
        self._previous = None

    def _tick(self, signum, frame):
        start, end = timed_probe()
        self.samples.append(end - start)
        if self._on_sample is not None:
            self._on_sample(start, end)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
