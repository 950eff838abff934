"""``LocalPoolBackend``: today's process pool behind the backend ABC.

This is the behavior-identical refactor of the historical
``workers.py`` pool: shards fan out over a ``ProcessPoolExecutor`` via
the picklable :func:`repro.exec.shards.invoke_shard_timed` entry point,
a dead pool (``BrokenProcessPool``) surfaces as
:class:`~repro.exec.backend.base.BackendBroken` so the orchestrator
degrades to sequential execution, and a host that refuses worker
processes outright fails at construction the same way.

This module is (with the other backend implementations) the only place
in the tree allowed to touch ``concurrent.futures`` — simlint SL010
keeps every other module behind the ABC.
"""

from __future__ import annotations

from concurrent.futures import BrokenExecutor, Future, ProcessPoolExecutor
from typing import Any, Dict, Optional

from repro.exec.backend.base import (
    BackendBroken,
    BackendFuture,
    ExecutionBackend,
    ShardRequest,
)
from repro.exec.shards import invoke_shard_timed
from repro.obs.trace import TraceBus


class _PoolFuture(BackendFuture):
    """Adapter: ``concurrent.futures.Future`` → backend payload."""

    def __init__(self, future: "Future[Dict[str, Any]]", worker: str):
        self._future = future
        self._worker = worker

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        try:
            payload = self._future.result(timeout=timeout)
        except BrokenExecutor as exc:
            raise BackendBroken(f"process pool died: {exc!r}") from exc
        payload.setdefault("worker", self._worker)
        return payload


class LocalPoolBackend(ExecutionBackend):
    """One machine, N worker processes."""

    name = "pool"

    def __init__(self, max_workers: int, bus: Optional[TraceBus] = None):
        super().__init__(bus=bus)
        self.max_workers = max(1, max_workers)
        try:
            self._pool: Optional[ProcessPoolExecutor] = ProcessPoolExecutor(
                max_workers=self.max_workers
            )
        except (OSError, ValueError) as exc:
            # The host refuses worker processes; the orchestrator's
            # BackendBroken handling degrades to inline execution.
            raise BackendBroken(f"cannot start process pool: {exc!r}") from exc

    def submit(self, request: ShardRequest) -> BackendFuture:
        pool = self._pool
        if pool is None:
            raise BackendBroken("process pool is shut down")
        try:
            future = pool.submit(
                invoke_shard_timed, request.module_name, request.func_name, request.params
            )
        except (BrokenExecutor, RuntimeError) as exc:
            raise BackendBroken(f"process pool rejected submit: {exc!r}") from exc
        return _PoolFuture(future, worker=self.name)

    def capacity(self) -> int:
        return 0 if self._pool is None else self.max_workers

    def shutdown(self, wait: bool = False) -> None:
        pool, self._pool = self._pool, None
        if pool is not None:
            # wait=False: a worker stuck past its shard timeout must not
            # stall the (already complete) run at shutdown.
            pool.shutdown(wait=wait, cancel_futures=True)
