"""Host-speed probe and the clock that scales times by it.

On the reference host (2 shared vCPUs) the speed of the CPU the program
runs on flips between two levels about 1.4x apart, several times a
second, and the share of slow time drifts over minutes; whole 20-second
runs can be 1.8x slower than others.  Neither the minimum nor the
median of an operation's repetitions stays within 25% from run to run
there (measured in ``README.md``).  So the host's speed is sampled just
before, during (every ``SAMPLE_INTERVAL_S``, from a helper thread) and
just after every operation, with a fixed pure-Python loop, and the
operation's time is reported in *reference seconds*: measured seconds ×
``REFERENCE_PROBE_S`` / mean probe reading.  The run pins itself to one
vCPU (``run.py``), so the readings describe the CPU the operation ran
on.  A change to the program moves the operation and not the probe; a
slow phase of the host moves both.  The mean reading is reported
(``host.probe_ms``) so raw wall time can be recovered.
"""

from __future__ import annotations

import statistics
import threading
import time
from typing import Any, Callable, List, Tuple

#: What one probe reading takes on the reference host in a quiet phase.
REFERENCE_PROBE_S = 1.5e-3
#: A reading is the faster of two runs of a short loop, scaled to
#: ``_PROBE_UNIT`` iterations (so readings stay comparable if the loop
#: length changes).
_PROBE_UNIT = 20_000
_SAMPLE_LOOP = 5_000
SAMPLE_INTERVAL_S = 0.05


def probe_seconds() -> float:
    """One host-speed reading (~1.5 ms on the reference host)."""
    best = float("inf")
    for _ in range(2):
        start = time.perf_counter()
        total = 0
        for i in range(_SAMPLE_LOOP):
            total += i * i % 7
        best = min(best, time.perf_counter() - start)
    return best * _PROBE_UNIT / _SAMPLE_LOOP


class _Sampler(threading.Thread):
    def __init__(self) -> None:
        super().__init__(name="host-probe", daemon=True)
        self.readings: List[float] = []
        self.done = threading.Event()

    def run(self) -> None:
        while not self.done.wait(SAMPLE_INTERVAL_S):
            self.readings.append(probe_seconds())


class ProbedClock:
    """Times calls and samples the host's speed around and during each."""

    def __init__(self) -> None:
        self._last = probe_seconds()

    def time(self, fn: Callable[..., Any], *args: Any) -> Tuple[Any, float, float]:
        """``(result, seconds, mean probe reading)`` of one call."""
        sampler = _Sampler()
        sampler.start()
        try:
            start = time.perf_counter()
            result = fn(*args)
            seconds = time.perf_counter() - start
        finally:
            sampler.done.set()
            sampler.join()
        after = probe_seconds()
        probe = statistics.fmean([self._last, *sampler.readings, after])
        self._last = after
        return result, seconds, probe


def to_reference(seconds: float, probe: float) -> float:
    """Measured seconds expressed at the reference host's speed."""
    return seconds * REFERENCE_PROBE_S / probe
