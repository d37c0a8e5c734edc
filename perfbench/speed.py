"""Timing that holds still on a shared virtual machine.

The 2-vCPU virtual machines this benchmark was built on disturb a run in two
ways, each large enough to swamp any useful regression bound:

* the hypervisor deschedules a vCPU for stretches (steal time in
  ``/proc/stat``, up to a fifth of a vCPU at times);
* a running vCPU switches between two speed states about 1.8x apart, for
  seconds at a time, with no steal at all.

So single-process work is timed in process CPU time, which excludes steal,
and scaled to a reference speed.  A short, fixed pure-Python
burst of exact ``Fraction`` arithmetic (what the exact kernels do) is timed
between segments of the workload; the segment's times are multiplied by
``REFERENCE_S / burst time``, averaged over the samples before and after
it.  ``REFERENCE_S`` is the burst's time in the fast state of that machine
(Intel Xeon, 2.1 GHz, KVM); the slow state takes about 1.8 ms.
"""

from __future__ import annotations

import os
import time
from fractions import Fraction

REFERENCE_S = 1.0e-3
_TERMS = 500
_REPEATS = 3

cpu_clock = time.process_time


def _burst() -> float:
    start = cpu_clock()
    total = Fraction(0)
    for i in range(1, _TERMS):
        total += Fraction(i, 7)
    return cpu_clock() - start


def sample() -> float:
    """Reference speed over current speed: below 1 on a slowed machine.
    The fastest of a few bursts, so one interruption does not count."""
    return REFERENCE_S / min(_burst() for _ in range(_REPEATS))


def steal_s() -> float:
    """Seconds the hypervisor has taken from this machine's vCPUs, averaged
    over them; 0 where ``/proc/stat`` does not say."""
    try:
        with open("/proc/stat", encoding="ascii") as stat:
            rows = [line.split() for line in stat if line[:3] == "cpu" and line[3].isdigit()]
    except OSError:
        return 0.0
    jiffies = sum(int(row[8]) for row in rows if len(row) > 8)
    return jiffies / max(len(rows), 1) / os.sysconf("SC_CLK_TCK")


class Speed:
    """Successive speed samples; :meth:`step` gives the factor for the
    interval since the previous sample."""

    def __init__(self) -> None:
        self._last = sample()

    def step(self) -> float:
        now = sample()
        factor = (self._last + now) / 2
        self._last = now
        return factor


class Segments:
    """Operation times grouped into segments of at least ``SEGMENT_S``
    seconds of CPU time.  Closing a segment samples the speed and scales
    its times."""

    SEGMENT_S = 0.1

    def __init__(self) -> None:
        self.speed = Speed()
        #: Scaled operation times, in the order added, with their tags.
        self.latencies_s: list[float] = []
        self.tags: list = []
        #: Work done and scaled seconds, over the closed segments.
        self.work = 0
        self.scaled_s = 0.0
        self._pending: list[tuple[float, object]] = []
        self._start = cpu_clock()

    def add(self, seconds: float, tag=None) -> None:
        self._pending.append((seconds, tag))

    def due(self) -> bool:
        return cpu_clock() - self._start >= self.SEGMENT_S

    def close(self, work: int = 0, seconds: float | None = None) -> None:
        """End the segment, which did ``work``; ``seconds`` replaces its CPU
        time when the measured work is timed another way."""
        spent = cpu_clock() - self._start if seconds is None else seconds
        factor = self.speed.step()
        for each, tag in self._pending:
            self.latencies_s.append(each * factor)
            self.tags.append(tag)
        self.work += work
        self.scaled_s += spent * factor
        self._pending = []
        self._start = cpu_clock()

    def throughput(self) -> float:
        """Work per scaled second over the closed segments."""
        return self.work / self.scaled_s
