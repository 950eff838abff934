"""Span-stack ledger: per entry point call count, total and self time.

A span is one call of an instrumented entry point. Open spans form a
stack; when a span ends, its duration is added to its parent's child
time, so its *self* time is its duration minus what its child spans
cover. Spans are not kept: each one ends into the running
``[count, total_s, self_s]`` of its name, which keeps a run with
millions of calls in constant memory and lets the ledger be written
once, at the end.

Instrumented calls must run inside an outer span (the root); the
root's self time is whatever no entry point covered.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List

#: name -> [calls, total seconds, self seconds]
Stat = List[float]


class Ledger:
    """Aggregated spans, keyed by name. ``clock`` is injectable for tests."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: Dict[str, Stat] = {}
        #: Numeric fields attached to spans (e.g. ``aps`` of a build),
        #: summed per span name.
        self.fields: Dict[str, Dict[str, float]] = {}
        #: One ``[start, child_seconds]`` frame per open span.
        self._stack: List[List[float]] = []

    def stat(self, name: str) -> Stat:
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = [0, 0.0, 0.0]
        return stat

    def wrap(self, func: Callable[..., Any], name: str) -> Callable[..., Any]:
        """``func`` with every call recorded as a span named ``name``."""
        stack = self._stack
        clock = self.clock
        stat = self.stat(name)

        def spanned(*args: Any, **kwargs: Any) -> Any:
            frame = [clock(), 0.0]
            stack.append(frame)
            try:
                return func(*args, **kwargs)
            finally:
                duration = clock() - frame[0]
                stack.pop()
                stat[0] += 1
                stat[1] += duration
                stat[2] += duration - frame[1]
                stack[-1][1] += duration

        spanned.__wrapped__ = func  # type: ignore[attr-defined]
        return spanned

    def begin(self) -> None:
        """Open a span; :meth:`end` closes the innermost one."""
        self._stack.append([self.clock(), 0.0])

    def end(self, name: str) -> None:
        end = self.clock()
        start, child = self._stack.pop()
        duration = end - start
        stat = self.stat(name)
        stat[0] += 1
        stat[1] += duration
        stat[2] += duration - child
        if self._stack:
            self._stack[-1][1] += duration

    @contextmanager
    def span(self, name: str, **fields: Any) -> Iterator["_Fields"]:
        """A span around a block; the yielded handle takes extra fields.

        Has the shape of ``SpanProfiler.span``, so the ledger can stand
        in as the program's ambient span profiler.
        """
        handle = _Fields(self, name)
        handle.add(**fields)
        self.begin()
        try:
            yield handle
        finally:
            self.end(name)

    def calls(self, name: str) -> int:
        stat = self.stats.get(name)
        return int(stat[0]) if stat else 0

    def total_s(self, name: str) -> float:
        stat = self.stats.get(name)
        return stat[1] if stat else 0.0

    def self_s(self, *names: str) -> float:
        return sum(self.stats[name][2] for name in names if name in self.stats)

    def self_s_with_prefix(self, prefix: str) -> float:
        return sum(stat[2] for name, stat in self.stats.items() if name.startswith(prefix))

    def to_dict(self) -> Dict[str, Any]:
        return {
            "spans": {
                name: {"calls": int(stat[0]), "total_s": stat[1], "self_s": stat[2]}
                for name, stat in sorted(self.stats.items())
            },
            "fields": self.fields,
        }


class _Fields:
    """What a ``span`` block yields: sums numeric fields into the ledger."""

    __slots__ = ("_ledger", "_name")

    def __init__(self, ledger: Ledger, name: str):
        self._ledger = ledger
        self._name = name

    def add(self, **fields: Any) -> None:
        totals = self._ledger.fields.setdefault(self._name, {})
        for key, value in fields.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                totals[key] = totals.get(key, 0) + value
