"""The benchmark's clock: CPU time at a reference speed.

On a shared host the CPU's speed drifts by up to 2x within seconds
(other tenants on the same core, frequency scaling), and wall-clock also
absorbs the time the process spends descheduled.  On the reference box,
the median pass time of identical runs spread 9-19% (interquartile
range over median, ten runs) by wall-clock and as much by CPU time —
more than any useful regression bound.

This clock therefore reads the thread's CPU time and calibrates it
afterwards: every :data:`SAMPLE_EVERY_S` of CPU time a profiling timer
(``SIGPROF``) times a fixed calibration loop, and an interval's
calibrated length is its CPU time (minus the loops inside it) scaled by
``REFERENCE_LOOP_S / loop time``, the loop time interpolated between the
samples around it.  The loop is the benchmark's own pure-Python code, so
no change to the simulator moves it; its speed tracks the machine's.

The clock reads the *thread* CPU clock: while a process-wide CPU timer
is armed, Linux advances the process CPU clock in scheduler ticks (4 ms
steps on the reference box), too coarse for a 2-4 ms loop.  The workloads
run single-threaded and start no processes, so thread and process CPU
time agree.

One calibrated second is the CPU time the work takes while the loop
runs in :data:`REFERENCE_LOOP_S`, the loop's estimated time on an idle
core of the 2-core reference box, where calibrated and CPU seconds then
agree: 0.62 of the 2.5 ms that the dictionary half alone (twice as many
iterations) took there, 0.62 being the ratio of the two loops' median
times over ten minutes under load.
"""

from __future__ import annotations

import bisect
import pickle
import signal
import time
from typing import List, Tuple

#: Calibration loop time on an idle core of the reference box.
REFERENCE_LOOP_S = 0.0016
#: CPU seconds between calibration samples (about 7% extra CPU).
SAMPLE_EVERY_S = 0.05

#: A fixed object graph for the loop to unpickle.
_GRAPH = pickle.dumps([{"key": i, "value": (i, str(i), [i] * 3),
                        "weight": i * 0.5} for i in range(600)])


def calibration_loop(iterations: int = 10000) -> int:
    """Dictionary, list and integer work, the mix the simulator's
    interpreter loops are made of, then unpickling a fixed object graph,
    the allocation-heavy C work of cache loads.  Over ten minutes of
    changing load on the reference box, the spread of work time over
    loop time within 23-second windows was 2.0-3.4% with this mix for
    steady execution, cold start and warm-cache passes; the dictionary
    loop alone reached 4.4% (warm cache), unpickling alone 3.8% (cold
    start)."""
    table = {}
    window = []
    total = 0
    for i in range(iterations):
        key = i & 255
        total += table.get(key, i) * 3 % 7
        table[key] = total
        window.append(total)
        if len(window) > 64:
            window.clear()
    return total + len(pickle.loads(_GRAPH))


class CalibratedClock:
    """Marks on the thread CPU clock, converted to calibrated seconds
    once sampling has stopped (interpolation needs the samples after a
    mark as well as those before it)."""

    def __init__(self):
        #: (start, end) CPU time of every calibration loop run.
        self.samples: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._sampling = False

    def start(self) -> None:
        """Sample now and then every :data:`SAMPLE_EVERY_S` of CPU time,
        wherever the program is."""
        self.sample()
        signal.signal(signal.SIGPROF, self._on_timer)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        """Stop the timer and sample once more, bracketing the last
        interval."""
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    @staticmethod
    def mark() -> float:
        return time.thread_time()

    def _on_timer(self, signum, frame) -> None:
        if not self._sampling:
            self.sample()

    def sample(self) -> None:
        self._sampling = True
        try:
            started = time.thread_time()
            self.run_loop()
            finished = time.thread_time()
        finally:
            self._sampling = False
        self.samples.append((started, finished))
        self._starts.append(started)

    def run_loop(self) -> None:
        calibration_loop()

    def loop_seconds(self) -> List[float]:
        return [end - start for start, end in self.samples]

    def seconds(self, start: float, end: float) -> float:
        """Calibrated length of the CPU interval between two marks."""
        total = 0.0
        cursor = start
        index = bisect.bisect_left(self._starts, start)
        while index < len(self.samples) and self.samples[index][0] < end:
            loop_start, loop_end = self.samples[index]
            total += self._segment(cursor, min(loop_start, end))
            cursor = max(cursor, loop_end)
            index += 1
        return total + self._segment(cursor, end)

    def _segment(self, start: float, end: float) -> float:
        if end <= start:
            return 0.0
        return (end - start) * REFERENCE_LOOP_S / \
            self._loop_at((start + end) / 2)

    def _loop_at(self, moment: float) -> float:
        """Loop time interpolated between the samples around *moment*."""
        index = bisect.bisect_left(self._starts, moment)
        if index == 0:
            first = self.samples[0]
            return first[1] - first[0]
        if index == len(self.samples):
            last = self.samples[-1]
            return last[1] - last[0]
        (s0, e0), (s1, e1) = self.samples[index - 1], self.samples[index]
        weight = (moment - e0) / (s1 - e0) if s1 > e0 else 0.0
        weight = min(max(weight, 0.0), 1.0)
        return max((e0 - s0) + ((e1 - s1) - (e0 - s0)) * weight, 1e-6)
