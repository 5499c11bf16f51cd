"""A fixed reference kernel that tracks the machine's speed during a run.

On a shared virtual CPU the speed of the same Python code swings by up to
2x within seconds, and the lost time is not reported as steal, so CPU
time swings with it.  Wall time alone then measures the host's load more
than the program.  The runner therefore times ``kernel()`` often during a
run and scales each request's latency by

    REF_NOMINAL_S / (median kernel time near that request)

which is the latency the request would have had on a machine that runs
the kernel in ``REF_NOMINAL_S``.  The kernel is stdlib only and never
touches the program, so a change to the program moves the scaled figures
as it would move raw times on a machine of constant speed.  Its mix
(``Fraction`` arithmetic, float ``math``, dicts, string formatting, small
lists) mirrors what the workloads spend their time on.

Set-up time is a fresh interpreter importing modules, which a loop of
arithmetic tracks poorly.  ``IMPORT_KERNEL`` is source for that
interpreter: ``import_kernel()`` unmarshals and runs a fixed module body
of classes, functions and literals, the work an import does once the
bytecode is cached, using builtins only so the import being measured
still pays for every stdlib module it needs.
"""

from __future__ import annotations

import contextlib
import gc
import math
import signal
import statistics
import time
from array import array
from bisect import bisect_left, bisect_right
from fractions import Fraction

# seconds one kernel() call takes on a quiet core of a 2-vCPU Intel Xeon VM
REF_NOMINAL_S = 0.0005
# seconds one import_kernel() call takes on the same core
IMPORT_NOMINAL_S = 0.0015
# wall seconds between samples while ticking
INTERVAL_S = 0.02
# samples this many seconds either side of a request count towards its speed
MARGIN_S = 0.06
# fewest samples a request's speed is taken from
MIN_SAMPLES = 3


def kernel() -> int:
    acc = Fraction(0)
    table: dict[str, list] = {}
    x = 0.0
    for i in range(1, 60):
        acc += Fraction(i, i * i + 1) * Fraction(3, 7) - Fraction(1, i + 2)
        x += math.exp(-i / 40.0) * math.sin(i * 0.3) + math.sqrt(i)
        key = f"x^{i % 7} y^{i % 5}"
        row = table.setdefault(key, [])
        row.append((i, acc.denominator % 1009))
        row.sort()
    return len(table) + int(x) + acc.numerator % 7


IMPORT_KERNEL = r'''
import marshal
_body = "\n".join(
    f"class C{i}:\n    x = {i}\n    def __init__(self, a, b=2):\n"
    f"        self.a = a\n        self.b = [a, b, 'k{i}']\n"
    f"    def m(self, y):\n        return {{'a': self.a, 'y': y, 'i': {i}}}\n"
    f"def f{i}(x, *args, key=None, **kw):\n    return [x + {i}, args, key, kw]\n"
    f"T{i} = {{'name': 'n{i}', 'items': (1, 2.5, 'three', {i})}}\nC{i}(3).m(4)\n"
    for i in range(40))
_blob = marshal.dumps(compile(_body, "<kernel>", "exec"))
def import_kernel():
    t0 = time.perf_counter()
    for _ in range(3):
        exec(marshal.loads(_blob), {"__name__": "kernel"})
    return time.perf_counter() - t0
'''


class SpeedLog:
    """Kernel timings with their start times, in time order."""

    def __init__(self):
        self.stamps = array("d")
        self.times = array("d")
        self._sampling = False

    def sample(self, *_signal) -> None:
        if self._sampling:  # a tick that lands in a sample is dropped
            return
        self._sampling = True
        # the program's live heap must not slow the kernel through the collector
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            kernel()
            t1 = time.perf_counter()
            self.stamps.append(t0)
            self.times.append(t1 - t0)
        finally:
            if enabled:
                gc.enable()
            self._sampling = False

    @contextlib.contextmanager
    def ticking(self):
        """Also sample every ``INTERVAL_S`` from a SIGALRM handler, so that
        long requests are sampled while they run.  The handler runs
        between the program's bytecodes; ``busy`` takes its time back out
        of the request's latency."""
        previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def busy(self, start: float, end: float) -> float:
        """Seconds of kernel runs that started within [start, end]."""
        lo = bisect_left(self.stamps, start)
        hi = bisect_right(self.stamps, end)
        return sum(self.times[lo:hi])

    def factor(self, start: float, end: float) -> float:
        """Scale factor for work done within [start, end]."""
        n = len(self.stamps)
        if n == 0:
            raise ValueError("no kernel samples")
        lo = bisect_left(self.stamps, start - MARGIN_S)
        hi = bisect_right(self.stamps, end + MARGIN_S)
        while hi - lo < min(MIN_SAMPLES, n):
            lo, hi = max(0, lo - 1), min(n, hi + 1)
        return REF_NOMINAL_S / statistics.median(self.times[lo:hi])
