"""Speed probe: how fast the machine runs Python while a sample is timed.

On a shared host one core's speed moves by a quarter or more over
seconds and over minutes, as other tenants load the same physical cores,
caches and memory.  It moves the CPU time of a fixed piece of work as
much as its wall-clock time, so a run median of raw seconds says more
about when the run happened than about the code.

The probe measures that speed on the same core, during the same
interval as the work.  A CPU-time interval timer (``ITIMER_PROF``)
interrupts the sample every :data:`INTERVAL` CPU seconds, and the signal
handler times one of two fixed pieces of stdlib-only Python, in turn:

* *compute*: 61-bit modular products and stores into a small dict, all
  in cache, like the sketches' arithmetic;
* *memory*: random reads from a list and random stores into a dict of a
  few MB, like the engine's and the primitives' walks over their data.

Other tenants slow the two by different amounts at different times, and
each workload mixes both kinds of work, so neither alone tracks every
workload.  An interval's *slowdown* is the geometric mean, over the two
kernels, of their median duration in the interval over their reference
duration; :meth:`SpeedProbe.cpu_seconds` divides the interval's CPU
time, less the probes' own time, by it.  On a 2-vCPU VM where wall-clock
run medians over ten seeds spread by 12-28% (quartile distance over
median), the probed ones spread by 3-7%.

The kernels are benchmark code that no change to ``repro`` touches, so
a faster ``repro`` lowers the probed seconds and leaves the probe as it
was.  The probe costs about 2.5% more run time and adds about 4 MB to the
sample's peak RSS.
"""

from __future__ import annotations

import math
import signal
import statistics
import time
from typing import NamedTuple

#: CPU seconds between probes.
INTERVAL = 0.01

#: Loop iterations of one probe.
ITERATIONS = 300

#: Reference durations of the compute and memory kernels, in seconds:
#: about the fastest each read, as the median over one sample, on a
#: 2-vCPU Intel Xeon VM (2.1 GHz) with Python 3.11.  At this speed a
#: probed second is a CPU second.
REFERENCE_S = (100e-6, 280e-6)

_MODULUS = (1 << 61) - 1
_LIST_SIZE = 60000
_DICT_SIZE = 20000


class Mark(NamedTuple):
    """Where an interval starts: probes of each kernel so far, their
    summed time, and the process's CPU time."""

    counts: tuple[int, int]
    probed: float
    cpu: float


class SpeedProbe:
    """Probes the machine's speed between :meth:`start` and :meth:`stop`."""

    def __init__(self) -> None:
        self.durations: tuple[list[float], list[float]] = ([], [])
        self.total = 0.0  # summed probe time
        self._kernels = (self._compute, self._memory)
        self._next = 0
        self._list = [(i * 2654435761) % 1000003 for i in range(_LIST_SIZE)]
        self._dict = {i * 7: i for i in range(_DICT_SIZE)}
        self._previous = None

    @staticmethod
    def _compute() -> int:
        table = {}
        acc = 1
        for i in range(ITERATIONS):
            acc = acc * 6364136223846793005 % _MODULUS
            table[acc & 255] = i
        return len(table)

    def _memory(self) -> int:
        items, table = self._list, self._dict
        state = 12345
        total = 0
        for i in range(ITERATIONS):
            state = (state * 1103515245 + 12345) & 0x7FFFFFFF
            total += items[state % _LIST_SIZE]
            table[state % _DICT_SIZE * 7] = i
        return total

    def _probe(self, signum, frame) -> None:
        kind = self._next
        self._next ^= 1
        start = time.perf_counter()
        self._kernels[kind]()
        took = time.perf_counter() - start
        self.durations[kind].append(took)
        self.total += took

    def start(self) -> None:
        for kernel in self._kernels:  # first runs off the clock
            kernel()
        self._previous = signal.signal(signal.SIGPROF, self._probe)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL, INTERVAL)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        if self._previous is not None:
            signal.signal(signal.SIGPROF, self._previous)
            self._previous = None

    def mark(self) -> Mark:
        """The start of an interval, for :meth:`cpu_seconds`."""
        counts = (len(self.durations[0]), len(self.durations[1]))
        return Mark(counts, self.total, time.process_time())

    def slowdown(self, counts: tuple[int, int] = (0, 0)) -> float:
        """How much slower than the reference the machine ran since
        *counts* probes of each kernel: 1 at reference speed.  A kernel
        with no probe in the interval uses all of its probes so far."""
        logs = []
        for durations, count, reference in zip(self.durations, counts, REFERENCE_S):
            window = durations[count:] or durations
            if window:
                logs.append(math.log(statistics.median(window) / reference))
        return math.exp(sum(logs) / len(logs)) if logs else 1.0

    def cpu_seconds(self, mark: Mark) -> float:
        """CPU seconds since *mark*, less the probes', at reference speed."""
        seconds = time.process_time() - mark.cpu - (self.total - mark.probed)
        return seconds / self.slowdown(mark.counts)
