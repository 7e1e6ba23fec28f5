"""A fixed reference loop that gauges how fast the host runs right now.

On a shared virtual machine the same code runs at anything from 1x to 2x
its fastest pace, as other tenants load the host, in states that change
within a second and can last longer than a benchmark run.  While the
benchmark repeats a spec, a :class:`PaceSampler` interrupts it ten times
per CPU second to time one short slice of this loop.  The benchmark takes
the slices' time out of the spec's phase times and scales those times by
how much slower than nominal the slices ran on average (``slowdown``).
Timings then read as if the whole run had gone at the host's fast pace.

The loop lives here, in the benchmark, so that no change under
``src/repro`` can speed it up or slow it down: a change to the simulator
moves the scaled timings exactly as much as the unscaled ones.  It is
plain interpreter work -- integer arithmetic, a ``range`` iterator, local
stores -- which on the 2-vCPU host described in README.md slowed, on
average, by the same factor as the specs (see "Noise").
"""

from __future__ import annotations

import signal
import statistics
import time

#: Iterations of one slice of the loop.
SLICE_ITERATIONS = 100_000
#: Seconds one slice takes at the fast pace of the host in README.md;
#: timings are scaled to this pace.  Changing it rescales every timing.
NOMINAL_S = 0.005
#: Process CPU seconds between two slices.
INTERVAL_S = 0.1


def loop(iterations: int = SLICE_ITERATIONS) -> int:
    total = 0
    for i in range(iterations):
        total += i & 7
    return total


class PaceSampler:
    """Times one loop slice every ``INTERVAL_S`` of process CPU time.

    Use it as a context manager around the code whose host pace is wanted.
    The slices run inside a ``SIGPROF`` handler, between two bytecodes of
    whatever the main thread is running; they share no state with it.
    ``spent`` is the CPU time the slices took so far, for the caller to
    take out of its own timings.
    """

    def __init__(self) -> None:
        self.slices: list[float] = []
        self.spent = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        # Wall time: inside this handler the process CPU clock reads in
        # whole scheduler ticks (4 ms here), as long as a slice.
        start = time.perf_counter()
        loop()
        elapsed = time.perf_counter() - start
        self.slices.append(elapsed)
        self.spent += elapsed

    def __enter__(self) -> "PaceSampler":
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)

    def slowdown(self) -> float:
        """How much slower than nominal the host ran while sampled."""
        return statistics.fmean(self.slices) / NOMINAL_S
