"""``QueueDirBackend``: a filesystem job queue of serialized shards.

The spool directory is the whole coordination mechanism::

    <spool>/pending/<id>.task      submitted, unclaimed (pickle)
    <spool>/claimed/<id>.task.<pid> claimed by one worker (atomic rename)
    <spool>/results/<id>.pkl       finished (pickle, written atomically)
    <spool>/stop                   marker: workers drain and exit

``submit`` serializes the shard into ``pending/``; any number of
independent ``queue_worker`` processes — spawned by this backend
(``workers=N``), started by hand, or running on other hosts sharing
the filesystem — claim tasks via ``os.rename`` (exactly-once) and
publish results. The backend's future polls ``results/``.

This is the job-queue *stub* on the road to a real cluster scheduler:
the claim/result discipline is the same one a Slurm or batch-queue
backend would implement, with the filesystem standing in for the
queue service.
"""

from __future__ import annotations

import itertools
import os
import pickle
import subprocess
import sys
import time
from concurrent.futures import TimeoutError as FutureTimeoutError
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro.exec.backend.base import (
    BackendBroken,
    BackendFuture,
    ExecutionBackend,
    RemoteShardError,
    ShardRequest,
    WorkerTimeout,
)
from repro.exec.backend.queue_worker import CLAIMED, PENDING, RESULTS, STOP, write_atomic
from repro.obs.trace import BACKEND_RESULT, BACKEND_SUBMIT, TraceBus


class _QueueFuture(BackendFuture):
    """Polls the spool's results directory for one task id."""

    def __init__(self, backend: "QueueDirBackend", task_id: str, key: str):
        self._backend = backend
        self._task_id = task_id
        self._key = key

    def result(self, timeout: Optional[float] = None) -> Dict[str, Any]:
        deadline = None if timeout is None else time.monotonic() + timeout
        path = self._backend.results_dir / f"{self._task_id}.pkl"
        while True:
            payload = self._try_read(path)
            if payload is not None:
                return self._resolve(payload)
            if deadline is not None and time.monotonic() >= deadline:
                raise FutureTimeoutError()
            self._backend.check_workers()
            if self._backend.reap_orphaned_claim(self._task_id):
                raise WorkerTimeout(
                    f"queue worker died holding task {self._task_id!r}; resubmit"
                )
            time.sleep(self._backend.poll_interval)

    @staticmethod
    def _try_read(path: Path) -> Optional[Dict[str, Any]]:
        try:
            with open(path, "rb") as handle:
                payload = pickle.load(handle)
        except FileNotFoundError:
            return None
        except (OSError, pickle.UnpicklingError, EOFError):
            return None  # mid-rename race or garbage; poll again
        try:
            path.unlink()
        except OSError:
            pass
        return payload

    def _resolve(self, payload: Dict[str, Any]) -> Dict[str, Any]:
        backend = self._backend
        worker = str(payload.get("worker", "queue-worker"))
        bus = backend.bus
        if payload.get("ok"):
            if bus is not None:
                bus.emit(
                    BACKEND_RESULT,
                    backend.trace_time(),
                    backend=backend.name,
                    key=self._key,
                    worker=worker,
                    ok=True,
                    worker_seconds=float(payload.get("worker_seconds", 0.0)),
                )
            return {
                "result": payload["result"],
                "worker_seconds": float(payload.get("worker_seconds", 0.0)),
                "worker": worker,
            }
        if bus is not None:
            bus.emit(
                BACKEND_RESULT,
                backend.trace_time(),
                backend=backend.name,
                key=self._key,
                worker=worker,
                ok=False,
            )
        raise RemoteShardError(
            f"shard {self._key!r} failed on {worker}: {payload.get('error', 'unknown error')}",
            remote_traceback=str(payload.get("traceback", "")),
        )


class QueueDirBackend(ExecutionBackend):
    """Shards through a spool directory; N independent workers drain it."""

    name = "queue"

    def __init__(
        self,
        root: Union[str, Path],
        workers: int = 1,
        poll_interval: float = 0.05,
        python: Optional[str] = None,
        bus: Optional[TraceBus] = None,
    ):
        super().__init__(bus=bus)
        self.root = Path(root)
        self.poll_interval = poll_interval
        self.python = python or sys.executable
        self.workers = max(0, workers)
        self._counter = itertools.count()
        self._procs: List["subprocess.Popen[bytes]"] = []
        self._spawned = 0
        self._shutdown = False
        for sub in (PENDING, RESULTS):
            (self.root / sub).mkdir(parents=True, exist_ok=True)
        # A fresh backend on a used spool (resume) must restart workers.
        try:
            (self.root / STOP).unlink()
        except OSError:
            pass
        self._top_up()

    @property
    def results_dir(self) -> Path:
        return self.root / RESULTS

    # -- worker management -----------------------------------------------

    def _top_up(self) -> None:
        """(Re)spawn owned workers up to the configured count."""
        if self._shutdown or self.workers == 0:
            return
        self._procs = [proc for proc in self._procs if proc.poll() is None]
        # Bounded respawn: a spool whose workers die instantly (broken
        # interpreter, full disk) must not fork-bomb the host.
        while len(self._procs) < self.workers and self._spawned < self.workers * 4:
            try:
                proc = subprocess.Popen(
                    [
                        self.python,
                        "-m",
                        "repro.exec.backend.queue_worker",
                        str(self.root),
                        "--poll",
                        str(self.poll_interval),
                    ],
                    stdin=subprocess.DEVNULL,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
            except OSError as exc:
                raise BackendBroken(f"cannot spawn queue worker: {exc!r}") from exc
            self._procs.append(proc)
            self._spawned += 1

    def check_workers(self) -> None:
        """Called from waiting futures: fail fast when every owned
        worker is gone instead of polling an abandoned spool forever.

        External-worker spools (``workers=0``) have nothing to check —
        liveness is the operator's contract there.
        """
        if self.workers == 0 or self._shutdown:
            return
        if any(proc.poll() is None for proc in self._procs):
            return
        if self._spawned < self.workers * 4:
            self._top_up()
            return
        raise WorkerTimeout("every owned queue worker exited; shard abandoned in spool")

    def reap_orphaned_claim(self, task_id: str) -> bool:
        """True when ``task_id`` was claimed by a now-dead local worker.

        A worker that dies mid-task leaves ``claimed/<id>.task.<pid>``
        behind and never publishes a result; without this check the
        waiting future would sit out its whole caller timeout. Claimant
        liveness is only checkable for pids on this machine, so
        external-worker spools (``workers=0``, possibly cross-host)
        skip it — there the caller timeout is the backstop.
        """
        if self.workers == 0:
            return False
        claimed = self.root / CLAIMED
        try:
            entries = list(claimed.iterdir())
        except OSError:
            return False
        prefix = f"{task_id}.task."
        for entry in entries:
            if not entry.name.startswith(prefix):
                continue
            try:
                pid = int(entry.name.rsplit(".", 1)[-1])
            except ValueError:
                continue
            try:
                os.kill(pid, 0)
            except ProcessLookupError:
                try:
                    entry.unlink()
                except OSError:
                    pass
                return True
            except OSError:
                return False  # can't signal it (permissions): assume alive
        return False

    # -- backend API -----------------------------------------------------

    def submit(self, request: ShardRequest) -> BackendFuture:
        if self._shutdown:
            raise BackendBroken("queue backend is shut down")
        if self.workers:
            self._top_up()
            if not any(proc.poll() is None for proc in self._procs):
                raise BackendBroken("queue workers keep dying; spool is unserviced")
        task_id = f"{os.getpid()}-{next(self._counter)}"
        write_atomic(
            self.root / PENDING / f"{task_id}.task",
            {
                "id": task_id,
                "module": request.module_name,
                "func": request.func_name,
                "params": request.params,
                "experiment": request.experiment,
                "key": request.key,
            },
        )
        bus = self.bus
        if bus is not None:
            bus.emit(
                BACKEND_SUBMIT,
                self.trace_time(),
                backend=self.name,
                key=request.key,
                worker="spool",
            )
        return _QueueFuture(self, task_id, request.key)

    def capacity(self) -> int:
        if self._shutdown:
            return 0
        if self.workers == 0:
            return 1  # external workers: assume at least one is attached
        return sum(1 for proc in self._procs if proc.poll() is None) or self.workers

    def shutdown(self, wait: bool = False) -> None:
        self._shutdown = True
        try:
            (self.root / STOP).touch()
        except OSError:
            pass
        deadline = time.monotonic() + (5.0 if wait else 1.0)
        for proc in self._procs:
            try:
                proc.wait(timeout=max(0.0, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.kill()
        self._procs.clear()
