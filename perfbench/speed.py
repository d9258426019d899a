"""Host-speed sampling, so that timings are steady on a shared host.

On a shared virtual machine the speed of the benchmark's core changes with
the load of other tenants: a fixed piece of work can take twice as long
from one second to the next.  A raw wall time therefore measures the host as
much as the program.

`SpeedSampler` runs a fixed calibration kernel every `PERIOD` seconds from a
SIGALRM handler (between bytecodes of the main thread) and records how long
each run of the kernel took.  The speed of the host over an interval is the
mean of REFERENCE_S / duration over the kernel runs inside it.  A timing is
reported in reference-speed seconds: the wall time, less the time spent in
the handler, times that speed.  Work that took t seconds while the host ran
at half its reference speed reads t/2.
"""

from __future__ import annotations

import signal
import time

import numpy as np

PERIOD = 0.05
# about the kernel's shortest duration on the 2-vCPU x86-64 host (2.1 GHz)
# the reference figures come from; a constant, so it cancels when two
# commits are compared
REFERENCE_S = 6.0e-4

_A = np.array([[0.9, 0.1], [0.0, 0.8]])
_V = np.ones(2)


def kernel() -> float:
    """Seconds taken by a fixed mix of interpreter work and small-array
    numpy calls, the two kinds of work that dominate the workloads."""
    t0 = time.perf_counter()
    s = 0
    for i in range(4000):
        s += i * i % 7
    x = _V
    for _ in range(100):
        x = _A @ x + _V
    return time.perf_counter() - t0


class SpeedSampler:
    """Samples the host speed while it runs; see the module docstring."""

    def __init__(self):
        self.times: list[float] = []
        self.speeds: list[float] = []
        self.handler_s = 0.0
        self._previous = None

    def _sample(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.speeds.append(REFERENCE_S / kernel())
        self.times.append(t0)
        self.handler_s += time.perf_counter() - t0

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def clock(self) -> tuple[float, float]:
        """A mark for `elapsed`: (wall time, handler time so far)."""
        return time.perf_counter(), self.handler_s

    def elapsed(self, mark: tuple[float, float]) -> float:
        """Reference-speed seconds since `mark`."""
        t0, h0 = mark
        t1 = time.perf_counter()
        wall = (t1 - t0) - (self.handler_s - h0)
        return wall * self.speed(t0, t1)

    def speed(self, t0: float, t1: float) -> float:
        """Mean sampled speed in [t0, t1]; the nearest samples when the
        interval holds none (it is shorter than the sampling period)."""
        inside = [s for t, s in zip(self.times, self.speeds) if t0 <= t <= t1]
        if not inside:
            if not self.speeds:
                self._sample(None, None)
            near = sorted(range(len(self.times)),
                          key=lambda k: min(abs(self.times[k] - t0),
                                            abs(self.times[k] - t1)))[:2]
            inside = [self.speeds[k] for k in near]
        return sum(inside) / len(inside)
