"""Machine speed, sampled by a fixed piece of calibration work, and the
reference clock it gives.

The benchmark runs on shared machines whose speed drifts.  On the
2-vCPU machine it was built on, a fixed pure-Python loop pinned to one
CPU took one of two times, about 0.30 and 0.45 ms, switching between
them every few milliseconds, and the share of time spent at the slower
one moved between 15% and 85% from one ten-second window to the next.
Wall-clock numbers of the same code then spread by 15–30% from run to
run, which says more about the machine's neighbours than about the
program.

So the benchmark keeps a :class:`ReferenceClock`.  While the server is
idle (before and after every set-up and closed-loop batch, and
throughout the gaps of the open loop) it times :func:`kernel`, a fixed
piece of work that calls no code of the system under test: a loop of
interpreter work, then small ``pwrite`` calls to a scratch file.
During a sample the clock runs at ``REFERENCE_S`` over the sample's
time; between two samples it runs at ``REFERENCE_S`` over the mean of
their times (times average, rates do not: a stretch's wall time is the
sum of its fast and slow parts).  A span read on this clock is what it
would have taken at the *reference speed*, at which the kernel takes
``REFERENCE_S``.  A change to the system moves its spans and not the
kernel, so it shows in full; a change of the machine's speed moves both
and mostly cancels.

The system calls are there because a slow spell of the machine slows
the server, which makes several system calls per request, more than it
slows interpreter work alone.  Over eight runs of each workload,
recorded with both parts timed separately and the clock rebuilt
offline from each, the spread of ``p90_ms`` across runs was 1.8–5.4%
with both parts and 2.6–5.8% with the loop alone, and that of
``sat_rps`` 2.7–5.5% against 2.8–7.0%.  On wall time both spread by
8–40%.

A sample the machine interrupted (a few in a thousand take more than
twice as long as the others) would stop the clock around it, so each
sample's time is capped at :data:`CAP` times the median of the latest
:data:`WINDOW` samples.

The kernel allocates no container objects and the clock keeps its
samples in float arrays, so sampling does not move the collector's
schedule.
"""

from __future__ import annotations

import bisect
import os
import statistics
import threading
import time
from array import array
from typing import Optional, Tuple

__all__ = ["REFERENCE_S", "ReferenceClock", "kernel"]

_perf = time.perf_counter

#: Loop iterations and ``pwrite`` calls of one :func:`kernel` call; the
#: two parts take about the same time.
ITERATIONS = 2000
SYSCALLS = 600
_BLOCK = b"x" * 120

#: What one :func:`kernel` call takes at the reference speed: about the
#: fast end of the machine the benchmark was built on.
REFERENCE_S = 0.00060

#: A sample counts at most ``CAP`` times the median of the latest
#: ``WINDOW`` samples.
CAP = 2.0
WINDOW = 32


class _Stepper:
    __slots__ = ("scale", "offset")

    def __init__(self) -> None:
        self.scale = 3
        self.offset = 7

    def step(self, value: int, key: int) -> int:
        return (value * self.scale + key + self.offset) & 0xFFFFF


_STEPPER = _Stepper()
_TABLE = {f"key{i}": i * 31 for i in range(64)}
_KEYS = tuple(_TABLE)


def kernel(fd: int) -> Tuple[float, float]:
    """Run one fixed loop of attribute loads, method calls, dict lookups
    and integer arithmetic, then write small blocks into the first
    kilobyte of the file open as ``fd``; returns the start and end on
    ``perf_counter``."""
    step, table, keys, pwrite, block = _STEPPER.step, _TABLE, _KEYS, os.pwrite, _BLOCK
    value = 0
    start = _perf()
    for i in range(ITERATIONS):
        value = step(value, table[keys[i & 63]])
    for i in range(SYSCALLS):
        pwrite(fd, block, (i & 7) * 128)
    return start, _perf()


class ReferenceClock:
    """Kernel samples of a run, and the wall-to-reference time map.

    :meth:`at` reads a wall time on the reference clock; read a time
    only once the sample after it was taken.  :meth:`factor` forecasts
    from the latest samples.  Sampling needs a ``scratch`` directory,
    where the clock keeps the file the kernel writes until
    :meth:`close`.
    """

    def __init__(self, scratch: Optional[str] = None) -> None:
        #: Start, end and seconds of every kernel run, in order.
        self.starts = array("d")
        self.ends = array("d")
        self.seconds = array("d")
        #: Per sample, extended by :meth:`_build`: its capped seconds and
        #: the reference time at its start.
        self._capped = array("d")
        self._at = array("d")
        self._lock = threading.Lock()
        self._fd: Optional[int] = None
        if scratch is not None:
            self._fd = os.open(os.path.join(scratch, "calibration"),
                               os.O_RDWR | os.O_CREAT, 0o600)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def sample(self) -> None:
        """Time the kernel now, from any thread.  A call made while a
        sample is being taken (a collection that the sample's own
        bookkeeping set off) is skipped."""
        if not self._lock.acquire(blocking=False):
            return
        try:
            start, end = kernel(self._fd)
            self.starts.append(start)
            self.ends.append(end)
            self.seconds.append(end - start)
        finally:
            self._lock.release()

    def factor(self) -> float:
        """Reference seconds per wall second over the latest samples
        (1.0 before any)."""
        if not self.seconds:
            return 1.0
        return REFERENCE_S / statistics.mean(self.seconds[-4:])

    def _build(self) -> None:
        for i in range(len(self._capped), len(self.seconds)):
            cap = CAP * statistics.median(self.seconds[max(0, i + 1 - WINDOW): i + 1])
            self._capped.append(min(self.seconds[i], cap))
            if i == 0:
                self._at.append(0.0)
                continue
            before, after = self._capped[i - 1], self._capped[i]
            gap = self.starts[i] - self.ends[i - 1]
            self._at.append(self._at[i - 1] + REFERENCE_S * self.seconds[i - 1] / before
                            + gap * REFERENCE_S * 2 / (before + after))

    def at(self, t: float) -> float:
        """Reference time of wall time ``t``, from an arbitrary origin."""
        if not self.seconds:
            return t
        if len(self._at) != len(self.seconds):
            self._build()
        i = max(0, bisect.bisect_right(self.starts, t) - 1)
        start, end, own = self.starts[i], self.ends[i], self._capped[i]
        if t <= end:
            return self._at[i] + (t - start) * REFERENCE_S / own
        gap = own if i + 1 == len(self.seconds) else (own + self._capped[i + 1]) / 2
        return self._at[i] + (end - start) * REFERENCE_S / own + (t - end) * REFERENCE_S / gap

    def span(self, start: float, end: float) -> float:
        """Reference seconds between two wall times."""
        return self.at(end) - self.at(start)
