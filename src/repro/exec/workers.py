"""Fault-tolerant shard execution: strategy over pluggable backends.

Execution strategy, in order of preference:

1. **Cache** — shards whose key is already in the :class:`ResultCache`
   never execute at all; results are cached per-outcome as they land,
   so a killed run loses nothing that already finished (the basis of
   campaign ``--resume``).
2. **Backend** — remaining shards fan out through an
   :class:`~repro.exec.backend.ExecutionBackend`: the local process
   pool by default (``jobs`` workers), or whatever ``--backend``
   selected (a sized local pool, a queue-dir spool). Each shard gets a
   per-shard timeout and a bounded number of retries with exponential
   backoff; a shard that keeps failing in the backend gets one final
   in-process attempt before the run is declared failed.
3. **In-process sequential** — used outright for ``jobs <= 1`` or a
   single pending shard (no pool overhead, default backend only), and
   as the graceful degradation path when the backend dies
   (:class:`~repro.exec.backend.BackendBroken`: the pool's workers
   were OOM-killed, or the spool's workers keep dying).

Whatever the path, outcomes are returned **in shard order**, never in
completion order — together with the experiments' pure ``merge`` this
makes distributed output byte-identical to sequential output.

This module holds the *strategy* (retries, timeouts, ordering,
degradation); *placement* lives behind the backend ABC, and simlint
SL010 keeps executor/subprocess primitives inside
``repro.exec.backend``.
"""

from __future__ import annotations

import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.exec.backend.base import (
    BackendBroken,
    BackendFuture,
    ExecutionBackend,
    ShardRequest,
)
from repro.exec.cache import ResultCache
from repro.exec.shards import Shard, invoke_shard
from repro.obs.spans import (
    SPAN_BACKEND_TASK,
    SPAN_EXEC_CACHE,
    SPAN_EXEC_SHARD,
    SPAN_EXEC_SHARDS,
    current_profiler,
)

#: How a shard's result was obtained. Backend-executed shards report
#: the backend's name (the local pool keeps the historical "pool").
SOURCE_CACHE = "cache"
SOURCE_POOL = "pool"
SOURCE_INLINE = "inline"


class ShardError(RuntimeError):
    """A shard failed on every attempt, including the in-process one."""

    def __init__(self, experiment: str, shard: Shard, attempts: int, cause: BaseException):
        super().__init__(
            f"experiment {experiment!r} shard {shard.key!r} failed after "
            f"{attempts} attempt(s): {cause!r}"
        )
        self.experiment = experiment
        self.shard = shard
        self.attempts = attempts
        self.cause = cause


@dataclass
class ExecPolicy:
    """Knobs of the execution strategy."""

    jobs: int = 1
    #: Seconds a single backend attempt may take; ``None`` disables the
    #: timeout. A timed-out attempt counts as a failure and is retried
    #: (the stuck worker is abandoned at shutdown, not joined).
    shard_timeout: Optional[float] = None
    #: Retries *after* the first attempt, per shard.
    max_retries: int = 2
    #: Backoff before retry ``n`` is ``backoff_base * 2**(n-1)`` seconds.
    backoff_base: float = 0.25
    #: Injectable for tests; never called when ``backoff_base == 0``.
    sleep: Callable[[float], None] = field(default=time.sleep)

    def backoff(self, retry: int) -> float:
        return self.backoff_base * (2 ** max(retry - 1, 0))


@dataclass
class ShardOutcome:
    """One shard's result plus how it was obtained.

    ``wall_seconds`` is submit-to-result as seen by the orchestrator;
    ``worker_seconds`` is the time the shard function itself ran (in
    the worker process for backend shards); ``queue_seconds`` is the
    difference — queue wait plus IPC — clamped at zero. ``worker`` is
    the executing worker's lane label (``host/3``,
    ``queue-worker/<pid>``) when a backend reported one. Cached shards
    report zero time and no worker.
    """

    shard: Shard
    result: object
    source: str
    attempts: int
    wall_seconds: float
    worker_seconds: float = 0.0
    queue_seconds: float = 0.0
    worker: str = ""


def execute_shards(
    module_name: str,
    func_name: str,
    shards: Sequence[Shard],
    policy: Optional[ExecPolicy] = None,
    cache: Optional[ResultCache] = None,
    experiment: str = "",
    on_outcome: Optional[Callable[[ShardOutcome], None]] = None,
    backend: Optional[ExecutionBackend] = None,
) -> List[ShardOutcome]:
    """Run every shard; returns outcomes in shard order.

    Raises :class:`ShardError` if any shard fails on all attempts —
    partial evaluations are worse than loud failures.

    ``backend=None`` keeps the historical behavior: inline for
    ``jobs <= 1`` or a single pending shard, a per-call local process
    pool otherwise. An explicit backend receives every pending shard
    (its capacity, not ``jobs``, bounds concurrency) and is *not* shut
    down here — the caller that built it owns its lifecycle, so one
    backend spans a whole campaign.

    With an ambient :class:`~repro.obs.spans.SpanProfiler` installed,
    the call is wrapped in an ``exec.shards`` span, the cache scan in
    an ``exec.cache`` span, every outcome is recorded as a retroactive
    ``exec.shard`` span on its own ``shard:<key>`` lane, and
    backend-executed shards additionally get a ``backend.task`` span on
    a per-worker ``worker:<label>`` lane.
    """
    policy = policy or ExecPolicy()
    profiler = current_profiler()
    outcomes: List[Optional[ShardOutcome]] = [None] * len(shards)

    def finish(index: int, outcome: ShardOutcome) -> None:
        outcomes[index] = outcome
        if cache is not None and outcome.source != SOURCE_CACHE:
            # Per-outcome, not end-of-run: a killed campaign keeps every
            # shard that finished, which is what --resume replays.
            cache.put(experiment, outcome.shard.key, outcome.shard.params, outcome.result)
        if profiler is not None:
            t1 = profiler.now()
            profiler.record(
                SPAN_EXEC_SHARD,
                t1 - outcome.wall_seconds,
                t1,
                key=outcome.shard.key,
                source=outcome.source,
                attempts=outcome.attempts,
                worker=round(outcome.worker_seconds, 6),
                queue=round(outcome.queue_seconds, 6),
                lane=f"shard:{outcome.shard.key}",
            )
            if outcome.worker:
                profiler.record(
                    SPAN_BACKEND_TASK,
                    t1 - outcome.worker_seconds,
                    t1,
                    key=outcome.shard.key,
                    backend=outcome.source,
                    worker=outcome.worker,
                    lane=f"worker:{outcome.worker}",
                )
        if on_outcome is not None:
            on_outcome(outcome)

    pending: List[int] = []

    def scan_cache() -> None:
        for index, shard in enumerate(shards):
            if cache is not None:
                hit, result = cache.get(experiment, shard.key, shard.params)
                if hit:
                    finish(index, ShardOutcome(shard, result, SOURCE_CACHE, 0, 0.0))
                    continue
            pending.append(index)

    def execute_pending() -> None:
        if not pending:
            return
        if backend is not None:
            if backend.capacity() > 0:
                _run_backend(
                    backend, module_name, func_name, shards, pending, policy, experiment, finish
                )
            else:
                _run_inline(module_name, func_name, shards, pending, policy, experiment, finish)
            return
        if policy.jobs <= 1 or len(pending) == 1:
            _run_inline(module_name, func_name, shards, pending, policy, experiment, finish)
            return
        from repro.exec.backend.local import LocalPoolBackend

        try:
            pool = LocalPoolBackend(max_workers=min(policy.jobs, len(pending)))
        except BackendBroken:
            # The host refuses worker processes; degrade immediately.
            _run_inline(module_name, func_name, shards, pending, policy, experiment, finish)
            return
        try:
            _run_backend(
                pool, module_name, func_name, shards, pending, policy, experiment, finish
            )
        finally:
            pool.shutdown(wait=False)

    if profiler is not None:
        with profiler.span(SPAN_EXEC_SHARDS, experiment=experiment, shards=len(shards)) as span:
            with profiler.span(SPAN_EXEC_CACHE, experiment=experiment) as cache_span:
                scan_cache()
                cache_span.add(hits=len(shards) - len(pending), pending=len(pending))
            execute_pending()
            span.add(cached=len(shards) - len(pending))
    else:
        scan_cache()
        execute_pending()

    return [outcome for outcome in outcomes if outcome is not None]


# -- strategies ---------------------------------------------------------


def _run_inline(
    module_name: str,
    func_name: str,
    shards: Sequence[Shard],
    pending: Sequence[int],
    policy: ExecPolicy,
    experiment: str,
    finish: Callable[[int, ShardOutcome], None],
    prior_attempts: int = 0,
) -> None:
    """Sequential in-process execution with retry/backoff."""
    for index in pending:
        shard = shards[index]
        attempts = prior_attempts
        started = time.perf_counter()
        while True:
            attempts += 1
            attempt_started = time.perf_counter()
            try:
                result = invoke_shard(module_name, func_name, shard.params)
            except Exception as exc:
                if attempts - prior_attempts > policy.max_retries:
                    raise ShardError(experiment, shard, attempts, exc) from exc
                backoff = policy.backoff(attempts - prior_attempts)
                if backoff > 0:
                    policy.sleep(backoff)
                continue
            now = time.perf_counter()
            # Wall includes failed attempts and backoff; worker is the
            # successful attempt alone. No queue: nothing waited.
            finish(
                index,
                ShardOutcome(
                    shard,
                    result,
                    SOURCE_INLINE,
                    attempts,
                    now - started,
                    worker_seconds=now - attempt_started,
                ),
            )
            break


def _run_backend(
    backend: ExecutionBackend,
    module_name: str,
    func_name: str,
    shards: Sequence[Shard],
    pending: Sequence[int],
    policy: ExecPolicy,
    experiment: str,
    finish: Callable[[int, ShardOutcome], None],
) -> None:
    """Backend execution with per-shard timeout, retry, and degradation."""
    source = backend.name
    broken = False
    started: Dict[int, float] = {}
    futures: Dict[int, BackendFuture] = {}

    def submit(index: int) -> bool:
        """Submit one shard; flips ``broken`` instead of raising."""
        nonlocal broken
        request = ShardRequest(
            experiment=experiment,
            module_name=module_name,
            func_name=func_name,
            key=shards[index].key,
            params=shards[index].params,
        )
        started[index] = time.perf_counter()
        try:
            futures[index] = backend.submit(request)
        except BackendBroken:
            broken = True
            return False
        return True

    for index in pending:
        if not submit(index):
            break

    for index in pending:
        shard = shards[index]
        attempts = 0
        while True:
            if broken:
                # The backend is gone. Work already in flight may still
                # have landed (the break was discovered later) — harvest
                # it non-blockingly before paying for an inline run.
                future = futures.pop(index, None)
                if future is not None:
                    try:
                        payload = future.result(timeout=0)
                    except Exception:
                        pass
                    else:
                        wall = time.perf_counter() - started[index]
                        worker = float(payload.get("worker_seconds", 0.0))
                        finish(
                            index,
                            ShardOutcome(
                                shard,
                                payload["result"],
                                source,
                                attempts + 1,
                                wall,
                                worker_seconds=worker,
                                queue_seconds=max(0.0, wall - worker),
                                worker=str(payload.get("worker", "")),
                            ),
                        )
                        break
                # Run this shard (and implicitly every later one)
                # in-process. Attempts so far still count toward the
                # reported total.
                _run_inline(
                    module_name,
                    func_name,
                    shards,
                    [index],
                    policy,
                    experiment,
                    finish,
                    prior_attempts=attempts,
                )
                break
            if index not in futures and not submit(index):
                continue
            attempts += 1
            try:
                payload = futures[index].result(timeout=policy.shard_timeout)
                wall = time.perf_counter() - started[index]
                worker = float(payload.get("worker_seconds", 0.0))
                finish(
                    index,
                    ShardOutcome(
                        shard,
                        payload["result"],
                        source,
                        attempts,
                        wall,
                        worker_seconds=worker,
                        queue_seconds=max(0.0, wall - worker),
                        worker=str(payload.get("worker", "")),
                    ),
                )
                break
            except BackendBroken:
                broken = True
                continue
            except FutureTimeoutError as exc:
                failure: BaseException = exc
            except Exception as exc:
                failure = exc
            futures.pop(index, None)  # that attempt is abandoned
            if attempts > policy.max_retries:
                # Last resort before giving up: one in-process try.
                attempt_started = time.perf_counter()
                try:
                    result = invoke_shard(module_name, func_name, shard.params)
                except Exception as final_exc:
                    raise ShardError(experiment, shard, attempts + 1, final_exc) from final_exc
                now = time.perf_counter()
                finish(
                    index,
                    ShardOutcome(
                        shard,
                        result,
                        SOURCE_INLINE,
                        attempts + 1,
                        now - started[index],
                        worker_seconds=now - attempt_started,
                    ),
                )
                break
            backoff = policy.backoff(attempts)
            if backoff > 0:
                policy.sleep(backoff)
            submit(index)
