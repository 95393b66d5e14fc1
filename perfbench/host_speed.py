"""Host-speed sampling for the timings of the benchmark process.

The benchmark runs on two vCPUs of a shared host.  Each vCPU flips
within seconds between a fast state and one about twice as slow, and the
share of slow time drifts over minutes, so wall-clock times of the same
code spread between runs past any useful regression bound.

:class:`SpeedSampler` measures that state while a step runs, on the CPU
the step runs on: a real-time interval timer interrupts the process
every :data:`INTERVAL_S`, and the signal handler times :func:`probe`, a
fixed slice of pure-Python dict work that calls no G-MAP code.  A step's
reference time is its wall time times :data:`REFERENCE_S` over the mean
probe time during the step: the time the step would take on a host whose
probe runs in :data:`REFERENCE_S`.  A change to the program moves the
step and not the probe, so it moves the reference time by the same share
as the wall time.  The probes cost about 1.5% of the step.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import Any, Callable, List, Optional, Tuple

#: Seconds between probes.
INTERVAL_S = 0.02
#: Median probe time inside the sweep workloads on the reference host (a
#: shared 2-vCPU Intel Xeon container, Python 3.11.7).
REFERENCE_S = 300e-6


def probe() -> float:
    """Seconds one fixed slice of dict work takes right now."""
    t0 = time.perf_counter()
    counts: dict = {}
    for i in range(1500):
        key = (i * 7919) % 409
        counts[key] = counts.get(key, 0) + 1
    return time.perf_counter() - t0


class SpeedSampler:
    """Probes the host's speed every :data:`INTERVAL_S` while active.

    A context manager for the main thread (signal handlers run there); it
    restores the previous ``SIGALRM`` handler and stops the timer on exit.
    """

    def __init__(self) -> None:
        self.samples: List[float] = []
        self._previous: Any = None
        self._probing = False

    def __enter__(self) -> "SpeedSampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc: Any) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _on_alarm(self, signum: int, frame: Any) -> None:
        if self._probing:  # a probe outlasted the interval
            return
        self._probing = True
        try:
            self.samples.append(probe())
        finally:
            self._probing = False

    def mean_probe_s(self) -> Optional[float]:
        """Mean probe time so far (None before the first probe)."""
        return statistics.fmean(self.samples) if self.samples else None


def reference_seconds(wall: float, mean_probe: Optional[float]) -> float:
    """``wall`` seconds measured while probes took ``mean_probe`` seconds,
    on the reference host (unscaled when no probe ran)."""
    return wall if mean_probe is None else wall * REFERENCE_S / mean_probe


def timed(body: Callable[[], Any]) -> Tuple[Any, float, float]:
    """Run ``body`` under a sampler; returns its value, wall seconds and
    reference seconds."""
    with SpeedSampler() as sampler:
        t0 = time.perf_counter()
        value = body()
        wall = time.perf_counter() - t0
    return value, wall, reference_seconds(wall, sampler.mean_probe_s())
