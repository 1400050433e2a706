"""Host speed: op timings scaled to a reference speed of the host.

The shared host the benchmark runs on speeds up and slows down by tens
of percent within seconds, as other tenants load the same cores.  On
the 2-core VM the benchmark was written on, a fixed pure-Python loop
timed back to back for three minutes had medians over 10-second windows
from 23.5 to 31.8 ms, and CPU time moved with wall time: this is not
time spent waiting for a core.  Raw wall times of runs minutes apart
spread by 10-30% on unchanged code.

So :class:`Clock` measures the host's speed with a fixed piece of
reference work around and during each timed call, and scales the
call's wall time by :data:`REF_S` over the mean time of that work
(:func:`trimmed_mean`): the call's time at the speed at which the
reference work takes ``REF_S``.  The reference work is the benchmark's
own code and calls nothing in the program, so a change to the program
moves the scaled time as it moves the wall time, while the host's speed
cancels.  It is a small gate-level evaluation (objects with slots,
method calls, list indexing), the kind of work the program does: over
ten minutes of cold builds and fault campaigns it tracked op time a
little better than an arithmetic loop or dictionary lookups did.

Where the loops run depends on where the timed work runs (:class:`Clock`
modes).  A core runs a loop about 1.7 times slower while its sibling
is busy, so the loops must see the cores as busy as the work does:

* ``"inline"``, work in this process: :data:`LOOPS` loops just before
  and just after the call, and during it a ``SIGVTALRM`` handler runs
  one loop every :data:`INTERVAL_S` of the process's CPU time (about
  1.5% of it).  The host's speed moves within a call of several
  seconds, and loops before and after it miss that.  On 25 gate-level
  fault campaigns of about 10 s each, the spread of per-op times
  (interquartile distance over median) was 0.26 raw, 0.13 scaled by
  loops around each op, and 0.06 scaled by loops during it (with an
  arithmetic loop as the reference work).
* ``"child"``, work in other processes that take turns, one busy at a
  time, on any core (a set-up interpreter; a served job passing from
  client to server to worker): loops before and after the call, on
  each core in turn, while those processes are idle.
"""

from __future__ import annotations

import os
import random
import signal
import statistics
import time
from typing import Callable, TypeVar

T = TypeVar("T")


class _Gate:
    __slots__ = ("a", "b", "out", "nand")

    def __init__(self, a: int, b: int, out: int, nand: bool) -> None:
        self.a, self.b, self.out, self.nand = a, b, out, nand

    def eval(self, values: list[int]) -> int:
        x, y = values[self.a], values[self.b]
        return 1 ^ (x & y) if self.nand else x | y


_INPUTS = 1000
_WIRING = random.Random(2004)
#: A feed-forward circuit: each gate reads inputs or earlier gates.
_GATES = [_Gate(_WIRING.randrange(_INPUTS + i),
                _WIRING.randrange(_INPUTS + i), _INPUTS + i, i % 2 == 0)
          for i in range(2000)]

#: Evaluations of the circuit per loop (1.5-2 ms on the 2-core VM).
PASSES = 6

#: Seconds one loop takes at reference speed: its time on the 2-core VM
#: in a quiet period, so reference seconds read close to the wall
#: seconds of a quiet host there.
REF_S = 0.0015

#: Loops just before and just after a call (on each core, when the
#: loops run on every core).
LOOPS = 8

#: Seconds of this process's CPU time between loops during a call.
INTERVAL_S = 0.1

#: Share of loop times cut from each end before averaging.
TRIM = 0.1

MODES = ("inline", "child")


def _loop() -> float:
    """Wall seconds of one reference loop."""
    start = time.perf_counter()
    values = [i & 1 for i in range(_INPUTS + len(_GATES))]
    for _ in range(PASSES):
        for gate in _GATES:
            values[gate.out] = gate.eval(values)
    return time.perf_counter() - start


def sample() -> list[float]:
    """Wall seconds of :data:`LOOPS` reference loops, back to back."""
    return [_loop() for _ in range(LOOPS)]


def trimmed_mean(times: list[float]) -> float:
    """Mean of *times* without the :data:`TRIM` share at each end.

    A call's time adds up the host's speed over it, so the loops' mean
    follows it better than their median when the host switches between
    a fast and a slow speed; trimming drops loops that an interrupt or
    a preemption stretched.  Over ten minutes of cold builds and
    campaigns this cut the spread of per-op times by up to a third
    against the median.
    """
    ordered = sorted(times)
    cut = int(len(ordered) * TRIM)
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def _on_core(core: int, fn: Callable[[], T]) -> T:
    """``fn()`` with the calling thread pinned to *core*."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {core})
    try:
        return fn()
    finally:
        os.sched_setaffinity(0, cores)


class Clock:
    """Times calls in reference seconds.

    *mode* says where the timed work runs (see the module docstring):
    ``"inline"`` in this process, on its main thread; ``"child"`` in
    other processes, one at a time.  The loops after one call are the
    loops before the next, so back-to-back calls pay for one sample
    each.
    """

    def __init__(self, mode: str) -> None:
        if mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, not {mode!r}")
        self._mode = mode
        self._last: list[float] | None = None
        self._cores = sorted(os.sched_getaffinity(0))

    def _sample(self) -> list[float]:
        if self._mode == "inline":
            return sample()
        return [loop for core in self._cores
                for loop in _on_core(core, sample)]

    def time(self, fn: Callable[[], T]) -> tuple[T, float, float]:
        """``(fn(), wall seconds, speed)``; reference seconds = wall * speed.

        *speed* is :data:`REF_S` over the trimmed mean time of the
        loops run around and during the call: above 1 when the host runs
        faster than reference.  The wall time leaves out the loops run
        during the call.
        """
        before = self._last if self._last is not None else self._sample()
        during: list[float] = []
        inline = self._mode == "inline"
        previous = None
        if inline:
            previous = signal.signal(signal.SIGVTALRM,
                                     lambda *_: during.append(_loop()))
            signal.setitimer(signal.ITIMER_VIRTUAL, INTERVAL_S, INTERVAL_S)
        try:
            start = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - start
        finally:
            if inline:
                signal.setitimer(signal.ITIMER_VIRTUAL, 0)
                signal.signal(signal.SIGVTALRM, previous)
        self._last = self._sample()
        loops = before + during + self._last
        return result, wall - sum(during), REF_S / trimmed_mean(loops)
