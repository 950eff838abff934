"""Untraced timing of a pass, scaled to the host's speed of the moment.

On a shared host the same work does not take the same time. One fig9
``Simulator.run`` call took from 0.31 s to 0.68 s over a few minutes, and
a slow spell can last longer than a whole benchmark run, so no statistic
of raw host time over one run is steady from run to run. The speed also
changes within seconds. A spell slows any Python code that runs in it,
the program's or not, though not all code by the same factor.

So a pass is cut into segments at every ``Simulator.run`` call: *run*
segments are the calls (or chunks of them), *setup* segments are the
host time between them. A fixed reference loop, which is part of the
benchmark and not of the program, is timed at every cut. Each segment's
host time is divided by the mean of the reference times just before and
after it and multiplied by :data:`REFERENCE_S`: the segment's time on a
host where the reference loop takes exactly that long. A change to the
program moves these times as it moves host time; a slow spell moves the
segment and the reference loops that bracket it together.

A bounded ``run(until=...)`` can also be made as consecutive ``run``
calls of at most ``chunk_s`` simulated seconds. They fire the same
callbacks in the same order, and the shorter segments are bracketed by
reference loops closer in time to them.
"""

from __future__ import annotations

import gc
import heapq
import math
import os
import time
from typing import Any, List, Optional, Tuple

from repro.sim.engine import Simulator

#: Nominal host seconds of one :meth:`Reference.loop`, about its time in
#: the fast spells of the 2-vCPU Xeon host the bounds were set on.
REFERENCE_S = 0.014

#: Stations in the reference loop's arena (~9 MB, past a core's L2; at
#: most 2**15, the station field of a queue entry), events per loop and
#: live queue entries; fixed, so its work never changes.
REFERENCE_STATIONS = 20_000
REFERENCE_EVENTS = 2_500
REFERENCE_QUEUE = 4_096

_LCG_MASK = 0x7FFFFFFF


def _lcg(state: int) -> int:
    return (state * 1103515245 + 12345) & _LCG_MASK


class _Station:
    __slots__ = ("x", "y", "heard")

    def __init__(self, x: float, y: float) -> None:
        self.x = x
        self.y = y
        self.heard = dict.fromkeys(range(8), 0)


class Reference:
    """A fixed toy event loop in the program's style of Python.

    Heap pops and pushes, slotted objects, dict updates and float
    geometry, as a discrete-event simulator does, over an arena of
    stations too large for a core's own caches: the program's heaps are
    tens to hundreds of MB, and a loop that stays in L1 and L2 is slowed
    by other tenants in other ways than the program is. Its own linear
    congruential generator keeps it independent of ``random``.
    """

    def __init__(self) -> None:
        rss_before = _resident_mb()
        state = 12345
        stations = []
        for _ in range(REFERENCE_STATIONS):
            state = _lcg(state)
            x = state / _LCG_MASK
            state = _lcg(state)
            stations.append(_Station(x * 1000.0, state / _LCG_MASK * 1000.0))
        self.stations = stations
        #: Resident memory the arena added, to leave out of peak RSS.
        self.arena_mb = max(0.0, _resident_mb() - rss_before)

    def loop(self) -> int:
        stations = self.stations
        count = len(stations)
        # Queue entries are ints (tick << 32 | seq << 15 | station), which
        # the collector does not track, so the loop leaves its counts be.
        queue = [k << 32 | k << 15 | k * 7919 % count for k in range(REFERENCE_QUEUE)]
        heapq.heapify(queue)
        seq = len(queue)
        state = 12345
        heard = 0
        for _ in range(REFERENCE_EVENTS):
            entry = heapq.heappop(queue)
            origin = stations[entry & 0x7FFF]
            for channel in range(8):
                state = _lcg(state)
                receiver = stations[state % count]
                if math.hypot(origin.x - receiver.x, origin.y - receiver.y) < 700.0:
                    receiver.heard[channel] += 1
                    heard += 1
            seq += 1
            heapq.heappush(queue, ((entry >> 32) + 1000) << 32 | seq << 15 | state % count)
        return heard

    def time(self) -> float:
        """Host seconds of one loop, with the collector held off.

        The loop must not set off collections of the program's heap: a
        full collection of the metro heap takes ~0.2 s, ten times the
        loop, and would land in the reference time instead of the
        program's.
        """
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            self.loop()
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


def _resident_mb() -> float:
    with open("/proc/self/statm", encoding="ascii") as handle:
        pages = int(handle.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


class Patches:
    """Class attributes replaced for the lifetime of a context."""

    def __init__(self) -> None:
        self._saved: List[Tuple[type, str, Any]] = []

    def set(self, owner: type, name: str, value: Any) -> None:
        self._saved.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def restore(self) -> None:
        while self._saved:
            owner, name, original = self._saved.pop()
            setattr(owner, name, original)


class RunClock:
    """Cuts the time inside the context into run and setup segments."""

    def __init__(self, reference: Reference, chunk_s: Optional[float] = None) -> None:
        self.chunk_s = chunk_s
        #: ``"run"`` or ``"setup"`` for each segment, in order.
        self.kinds: List[str] = []
        #: Host seconds of each segment.
        self.seconds: List[float] = []
        #: Host seconds of the reference loop at each cut; one more
        #: than there are segments.
        self.references: List[float] = []
        self.sim_s = 0.0
        self._mark = 0.0
        self._reference = reference
        self._patches = Patches()

    def _cut(self, kind: str) -> None:
        """Close the open segment as ``kind``; time the reference loop."""
        self.seconds.append(time.perf_counter() - self._mark)
        self.kinds.append(kind)
        self.references.append(self._reference.time())
        self._mark = time.perf_counter()

    def scaled(self) -> List[float]:
        """Each segment's time at the reference loop's nominal speed."""
        return [
            seconds * 2.0 * REFERENCE_S / (before + after)
            for seconds, before, after in zip(
                self.seconds, self.references, self.references[1:]
            )
        ]

    def __enter__(self) -> "RunClock":
        original = Simulator.run
        chunk_s = self.chunk_s

        def run(sim: Simulator, until: Optional[float] = None) -> None:
            sim_start = sim.now
            bounds: List[Optional[float]] = [until]
            if chunk_s is not None and until is not None:
                steps = max(1, math.ceil((until - sim_start) / chunk_s))
                bounds = [sim_start + chunk_s * k for k in range(1, steps)] + [until]
            self._cut("setup")
            try:
                for bound in bounds:
                    try:
                        original(sim, bound)
                    finally:
                        self._cut("run")
                    if sim._stopped:
                        # Simulator.stop() ends the whole call, and the
                        # clock still advances to ``until`` as it would.
                        if until is not None and until > sim.now:
                            sim.now = until
                        break
            finally:
                self.sim_s += sim.now - sim_start

        self.references.append(self._reference.time())
        self._mark = time.perf_counter()
        self._patches.set(Simulator, "run", run)
        return self

    def __exit__(self, *exc: Any) -> None:
        self._patches.restore()
        self._cut("setup")
