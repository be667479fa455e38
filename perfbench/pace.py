"""Host-speed sampling, so that runs made at different times compare.

On a shared virtual machine the speed a CPU gives one process drifts by a
third or more, over spans from a fraction of a second to minutes, as
neighbours load the physical core; every wall time measured on it drifts the
same way. While a Pacer is active, a timer signal interrupts the run every
PERIOD_S of wall time and the handler times a fixed pure-Python loop (the
reference work). An op's latency, less the time the handler itself took, is
then scaled by

    (REFERENCE_S / median(reference times taken while the op ran)) ** EXPONENT

A scaled latency is what the op would take on a host that runs the loop in
REFERENCE_S: it is proportional to the op's own wall time, so it moves when
the program's work changes, and not when the host slows down.

The handler runs in the benchmark process, between two bytecodes of an
in-process op or while the process waits for a child interpreter; the run is
pinned to one CPU, so either way it samples the CPU the op runs on. The loop
shares no code with ketlab. A loaded core slows ketlab's ops a little more
than the loop: on the reference machine, within one run, log op latency
against log loop time has a slope of 1.2 (protective-warm) to 1.3
(sampling-warm), hence EXPONENT. Numpy FFTs make a worse reference: ops
slow only 0.3 to 0.5 times as much as they do, in log terms.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

PERIOD_S = 0.010         # one sample per 10 ms of wall time
LOOP = 2000              # iterations of the reference work
REFERENCE_S = 0.000120   # one reference loop on the 2-vCPU reference machine, quiet
MIN_SAMPLES = 25         # an op shorter than this many periods borrows the latest samples
EXPONENT = 1.2           # ketlab op time ~ loop time ** EXPONENT as the host slows


def _work() -> int:
    total = 0
    for i in range(LOOP):
        total += i * i
    return total


class Pacer:
    """Samples the host's speed while active (a context manager)."""

    def __init__(self):
        self.samples = []   # reference loop times, oldest first
        self.busy = 0.0     # wall time spent in the handler

    def sample(self, signum=None, frame=None) -> None:
        entered = perf_counter()
        _work()
        done = perf_counter()
        self.samples.append(done - entered)
        self.busy += perf_counter() - entered

    def __enter__(self):
        for _ in range(MIN_SAMPLES):
            self.sample()
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        return False

    def mark(self) -> tuple[int, float]:
        return len(self.samples), self.busy

    def scale(self, mark: tuple[int, float], wall: float) -> float:
        """Scale the wall time since `mark` to the reference host speed,
        from the samples taken since `mark` (at least MIN_SAMPLES)."""
        count, busy = mark
        recent = self.samples[min(count, len(self.samples) - MIN_SAMPLES):]
        own = wall - (self.busy - busy)
        return own * (REFERENCE_S / statistics.median(recent)) ** EXPONENT

    def host_speed(self) -> float:
        """REFERENCE_S over the median of every sample so far."""
        return REFERENCE_S / statistics.median(self.samples)
