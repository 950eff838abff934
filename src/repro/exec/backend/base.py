"""The execution-backend contract: where shards run.

``repro.exec.workers`` owns the *strategy* of a run — cache scan,
retry/backoff, shard-order results, inline degradation — but is
agnostic about *where* a shard executes. That question is this
package's: an :class:`ExecutionBackend` accepts a
:class:`ShardRequest`, runs it somewhere (a local process pool or a
filesystem job queue), and hands back a :class:`BackendFuture`
resolving to the shard's payload.

The contract the orchestrator relies on:

- :meth:`ExecutionBackend.submit` never blocks on shard execution; it
  may queue internally when every worker is busy.
- ``future.result(timeout)`` returns a payload dict with ``result``
  (the shard's return value), ``worker_seconds`` (worker-side wall
  time), and ``worker`` (a lane label for telemetry/Perfetto). It
  raises :class:`concurrent.futures.TimeoutError` when the caller's
  deadline passes (retryable), :class:`WorkerTimeout` when the backend
  itself declared the worker dead (retryable), any other exception for
  a shard-level failure (retryable), and :class:`BackendBroken` when
  the whole backend is unusable — the orchestrator then degrades to
  in-process sequential execution, exactly like the historical
  ``BrokenProcessPool`` path.
- :meth:`ExecutionBackend.capacity` is the number of shards the
  backend can run concurrently *right now* (dead workers excluded);
  0 means "do not submit".
- :meth:`ExecutionBackend.shutdown` releases workers without waiting
  for stuck ones.

Backends emit ``backend.*`` trace events (taxonomy in
:mod:`repro.obs.trace`) when a bus is attached; timestamps are wall
seconds since the backend started — harness time, never sim time.
"""

from __future__ import annotations

import abc
import math
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Optional, Tuple

from repro.obs.trace import TraceBus


class BackendError(RuntimeError):
    """Base class for backend-layer failures."""


class BackendBroken(BackendError):
    """The whole backend is unusable; degrade to inline execution."""


class WorkerTimeout(BackendError):
    """A worker died mid-shard; retryable."""


class RemoteShardError(BackendError):
    """The shard itself raised in a remote worker.

    Carries the remote traceback text so the failure is debuggable
    from the orchestrator side.
    """

    def __init__(self, message: str, remote_traceback: str = ""):
        super().__init__(message)
        self.remote_traceback = remote_traceback


@dataclass(frozen=True)
class ShardRequest:
    """One unit of work handed to a backend.

    ``module_name``/``func_name``/``params`` mirror
    :func:`repro.exec.shards.invoke_shard`; ``key`` and ``experiment``
    ride along for progress lines, trace events, and spool filenames.
    """

    experiment: str
    module_name: str
    func_name: str
    key: str
    params: Dict[str, Any] = field(default_factory=dict)


class BackendFuture(abc.ABC):
    """Handle for one submitted shard; see the module docstring."""

    @abc.abstractmethod
    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        """Block until the payload is ready (or ``timeout`` passes)."""


class ExecutionBackend(abc.ABC):
    """Abstract "where shards run"; see the module docstring."""

    #: Short backend id for telemetry and trace: a shard's source ("pool", "queue").
    name: str = "backend"

    def __init__(self, bus: Optional[TraceBus] = None):
        self.bus = bus
        self._t0 = time.monotonic()

    @abc.abstractmethod
    def submit(self, request: ShardRequest) -> BackendFuture:
        """Queue one shard; raises :class:`BackendBroken` when unusable."""

    @abc.abstractmethod
    def capacity(self) -> int:
        """Usable concurrent-shard slots right now (0 = don't submit)."""

    @abc.abstractmethod
    def shutdown(self, wait: bool = False) -> None:
        """Release workers; must not block on stuck shards."""

    # -- trace plumbing --------------------------------------------------
    #
    # Backends emit ``backend.*`` events directly on ``self.bus`` under
    # the usual `bus is not None` guard (call sites name the taxonomy
    # constants, so SL004 can verify them); this is their time axis.

    def trace_time(self) -> float:
        """Seconds since backend construction (the bus's time axis)."""
        return time.monotonic() - self._t0


# -- backend spec parsing ----------------------------------------------------
#
# The CLI selects a backend with one string: ``local[:N]`` or
# ``queuedir:PATH[?workers=N&poll=S]``. Options after ``?`` are the
# backend's keyword knobs. :func:`check_backend_spec` rejects any bad
# spec before a worker starts.


def parse_backend_spec(spec: str) -> Tuple[str, str, Dict[str, str]]:
    """``"kind:arg?k=v&k=v"`` → ``(kind, arg, options)``."""
    head, _, query = spec.partition("?")
    kind, _, arg = head.partition(":")
    options: Dict[str, str] = {}
    if query:
        for pair in query.split("&"):
            key, sep, value = pair.partition("=")
            if not sep or not key:
                raise ValueError(f"backend spec {spec!r}: malformed option {pair!r}")
            options[key] = value
    return kind.strip().lower(), arg, options


def check_backend_spec(spec: str) -> Tuple[str, Dict[str, Any]]:
    """Check ``spec`` fully (kind, options, numbers) without starting
    anything; return ``(kind, kwargs)`` for the backend constructor.

    Raises :class:`ValueError` with a one-line message naming the spec.
    A ``queuedir`` spec without ``workers=`` leaves the count to the
    caller's ``jobs``.
    """
    kind, arg, options = parse_backend_spec(spec)

    def bad(reason: str) -> ValueError:
        return ValueError(f"backend spec {spec!r}: {reason}")

    def number(text: str, what: str, cast: Callable[[str], Any]) -> Any:
        try:
            return cast(text)
        except ValueError:
            noun = "an integer" if cast is int else "a number"
            raise bad(f"{what} must be {noun}, got {text!r}") from None

    if kind == "local":
        if options:
            raise bad("local takes no ?options")
        return kind, ({"max_workers": number(arg, "worker count", int)} if arg else {})
    if kind == "queuedir":
        if not arg:
            raise bad("queuedir needs a spool path")
        kwargs: Dict[str, Any] = {"root": arg}
        if "workers" in options:
            kwargs["workers"] = number(options.pop("workers"), "workers", int)
        if "poll" in options:
            poll = number(options.pop("poll"), "poll", float)
            if not (poll >= 0 and math.isfinite(poll)):
                raise bad(f"poll must be a finite number of seconds >= 0, got {poll!r}")
            kwargs["poll_interval"] = poll
        if options:
            raise bad(f"unknown option(s) {sorted(options)}")
        return kind, kwargs
    raise bad(f"unknown backend kind {kind!r} (known: local, queuedir)")


def make_backend(
    spec: Optional[str], jobs: int = 1, bus: Optional[TraceBus] = None
) -> Optional["ExecutionBackend"]:
    """Build a backend from a CLI spec string.

    ``None`` and ``"local"`` (without an explicit worker count) return
    ``None`` — the orchestrator then uses its built-in local-pool
    strategy, sized per call, exactly as before this subsystem existed.
    """
    if spec is None:
        return None
    kind, kwargs = check_backend_spec(spec)
    if kind == "local":
        if not kwargs:
            return None
        from repro.exec.backend.local import LocalPoolBackend

        return LocalPoolBackend(bus=bus, **kwargs)
    from repro.exec.backend.queuedir import QueueDirBackend

    kwargs.setdefault("workers", jobs)
    return QueueDirBackend(bus=bus, **kwargs)
