"""A fixed piece of pure-Python work that measures how fast the machine is right now.

On the shared machine the benchmark was built on, a process's speed
changes by 30% and more within seconds: the same verification, run again
with the same seed, took between 7.4 and 10.6 s.  CPU time equalled wall
time (no time was stolen), so the process is not waiting; the CPU under it
simply runs slower at times.  Timed runs therefore sample this kernel
*while operations run* and scale operation times by how long it took
(run.py), so that a metric follows the program and not the machine.

`Sampler` fires a timer every INTERVAL_S of wall time.  While an operation
is open, the signal handler runs the kernel once and records its CPU time
on the main thread (``time.thread_time``), so that a worker thread which
takes the GIL in the middle of the kernel (``oddgon verify`` runs its
checks in a thread pool) is not counted as kernel time.  The handler's
own CPU time is also kept, so that it can be taken out of the operation's
wall time: about 3 ms in every 250 ms.

The kernel uses no ``oddgon`` code, so no change to the program can move it.
It is integer arithmetic with dictionary stores.  Fourteen repeats of one
n = 15 verification, sampled this way, had a coefficient of variation of
0.090 raw and 0.053 scaled by this kernel (correlation 0.82); a float
ray-segment kernel (0.077) and a tuple-scan kernel (0.060) tracked the
program less well, and so did combinations of the three.
"""
from __future__ import annotations

import signal
import time
from typing import Optional

# The scale of corrected timings: they read as if the kernel took this long.
NOMINAL_S = 0.0032
INTERVAL_S = 0.25


def _work() -> int:
    table: dict[int, int] = {}
    acc = 0
    for i in range(16_000):
        acc += i * i % 7
        table[i & 1023] = acc
    return acc + len(table)


def seconds() -> float:
    """CPU seconds the kernel takes once on this thread."""
    t0 = time.thread_time()
    _work()
    return time.thread_time() - t0


class Sampler:
    """Samples the kernel on a wall-clock timer while an operation is open.

    Use as a context manager around the timed loop, and run each operation
    through `call`.
    """

    def __init__(self) -> None:
        self.samples: Optional[list[float]] = None
        self.cost_s = 0.0
        self._old = None

    def _handler(self, signum, frame) -> None:
        if self.samples is None:
            return
        t0 = time.thread_time()
        self.samples.append(seconds())
        self.cost_s += time.thread_time() - t0

    def __enter__(self) -> "Sampler":
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)
        self.samples = None

    def call(self, fn, arg):
        """(fn(arg), kernel times sampled during it, CPU seconds the sampling took)."""
        self.cost_s = 0.0
        self.samples = []
        try:
            result = fn(arg)
        finally:
            samples, self.samples = self.samples, None
        return result, samples, self.cost_s
