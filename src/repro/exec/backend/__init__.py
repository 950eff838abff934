"""``repro.exec.backend`` — pluggable "where shards run" backends.

The :class:`ExecutionBackend` ABC (``submit``/``capacity``/``shutdown``)
abstracts shard placement away from the orchestration in
``repro.exec.workers``. Two implementations ship:

- :class:`LocalPoolBackend` — one machine, a ``ProcessPoolExecutor``
  (the behavior-identical refactor of the historical pool);
- :class:`QueueDirBackend` — a filesystem job queue: shards spooled to
  disk, claimed atomically via rename by N independent worker
  processes. With ``workers=0`` on a shared filesystem the workers can
  run on other machines.

Selected from the CLI as ``--backend local:N |
queuedir:PATH[?workers=N&poll=S]``; :func:`check_backend_spec` checks a
spec without starting anything and :func:`make_backend` builds it.
simlint SL010 (``backend-boundary``) keeps executor/subprocess
primitives inside this package — everything else goes through the ABC.
"""

from repro.exec.backend.base import (
    BackendBroken,
    BackendError,
    BackendFuture,
    ExecutionBackend,
    RemoteShardError,
    ShardRequest,
    WorkerTimeout,
    check_backend_spec,
    make_backend,
    parse_backend_spec,
)
from repro.exec.backend.local import LocalPoolBackend
from repro.exec.backend.queuedir import QueueDirBackend

__all__ = [
    "BackendBroken",
    "BackendError",
    "BackendFuture",
    "ExecutionBackend",
    "LocalPoolBackend",
    "QueueDirBackend",
    "RemoteShardError",
    "ShardRequest",
    "WorkerTimeout",
    "check_backend_spec",
    "make_backend",
    "parse_backend_spec",
]
