"""A clock that reads the same however fast the host happens to run.

The machine the benchmark was tuned on is a shared virtual machine whose
speed drifts by a quarter or more over minutes, with CPU time equal to
wall time: other tenants slow the core, they do not take it away.  A run
therefore also times a fixed reference *probe*, which does not touch the
package under test, while the workload runs.  The probe has two parts,
timed apart: interpreter work (tuple, set and dict operations like a
semigroup closure, and an integer loop) and memory work (summing a list
of integers scattered over about 12 MB, like NumPy's table gathers).

- `Clock.start()` arms a timer that interrupts the workload about every
  `PERIOD_S` seconds and runs the probe once, with the garbage collector
  paused.
- `Clock.now()` is `perf_counter()` minus the time spent in probes, so
  the workload's timings leave the probes out.
- `Clock.factor(memory_share)` compares the run's median time of each
  part with its nominal time, weighs the two by the workload's share of
  memory-bound work, and inverts that.  A time multiplied by it is the
  time at reference speed: the speed at which the parts take their
  nominal times, about the speed of the tuning machine.  When the host
  slows, probe and workload slow together and the product stays put;
  when the program gets faster, only the workload does.
"""

from __future__ import annotations

import gc
import random
import signal
import statistics
import time

PERIOD_S = 0.5
# Median time of each part during a run on the tuning machine (2 vCPUs
# of an Intel Xeon).
NOMINAL_INTERP_S = 0.013
NOMINAL_MEMORY_S = 0.016

_GENERATORS = ((1, 2, 3, 4, 0), (1, 0, 2, 3, 4))
# Integers allocated in order and listed shuffled, so that summing them
# reads memory at random.
_SCATTERED = [10**7 + i for i in range(300000)]
random.Random(5278).shuffle(_SCATTERED)


def _interp_work() -> int:
    seen = {(0, 1, 2, 3, 4)}
    frontier = list(seen)
    while frontier:
        grown = []
        for p in frontier:
            for g in _GENERATORS:
                q = tuple(g[i] for i in p)
                if q not in seen:
                    seen.add(q)
                    grown.append(q)
        frontier = grown
    perms = sorted(seen)
    index = {p: i for i, p in enumerate(perms)}
    table = [[index[tuple(b[i] for i in a)] for b in perms[:40]] for a in perms]
    total = sum(map(len, table))
    for i in range(60000):
        total += i * i % 7
    return total


def probe() -> tuple[float, float]:
    """Seconds the interpreter part and the memory part take once, with
    the garbage collector paused."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _interp_work()
        middle = time.perf_counter()
        sum(_SCATTERED)
        return middle - start, time.perf_counter() - middle
    finally:
        if enabled:
            gc.enable()


class Clock:
    """See the module docstring.  Only the main thread may use it."""

    def __init__(self):
        self.probes: list[tuple[float, float]] = []
        self._paused = 0.0
        self._previous = None

    def _tick(self, signum, frame) -> None:
        start = time.perf_counter()
        self.probes.append(probe())
        self._paused += time.perf_counter() - start
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def start(self) -> None:
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def now(self) -> float:
        """Seconds that exclude every probe; the timer is held off while
        reading, so a probe cannot fall between the two reads."""
        signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return time.perf_counter() - self._paused
        finally:
            signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGALRM})

    def bracket(self, count: int) -> None:
        """Run the probe `count` times now, outside any timed section."""
        self.probes += [probe() for _ in range(count)]

    def slowdowns(self) -> tuple[float, float]:
        """Median time of each probe part over its nominal time."""
        return (statistics.median(p[0] for p in self.probes) / NOMINAL_INTERP_S,
                statistics.median(p[1] for p in self.probes) / NOMINAL_MEMORY_S)

    def factor(self, memory_share: float) -> float:
        interp, memory = self.slowdowns()
        return 1 / ((1 - memory_share) * interp + memory_share * memory)
