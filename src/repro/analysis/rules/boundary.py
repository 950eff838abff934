"""SL010: process/socket primitives stay inside the backend package.

The exec engine's contract is that *placement* — spawning workers,
feeding a job spool, pooling processes — lives behind the
``ExecutionBackend`` ABC in ``repro.exec.backend``. Everything else
(orchestration, experiments, the simulator itself) reasons about
shards and futures, never about processes. A stray
``subprocess.run(...)`` in an experiment or a private
``ProcessPoolExecutor`` in an analysis module bypasses the backend's
fault handling (retries, timeouts, inline degradation) and its
telemetry, and couples results to the host in ways the determinism
rules can't see.

This rule bans importing or calling execution primitives —
``subprocess``, ``multiprocessing``, ``concurrent.futures`` executors,
``socket``, and ``os`` process-spawning calls (``fork``, ``exec*``,
``spawn*``, ``popen``, ``system``) — outside the configured backend
package. Importing *exception types* from ``concurrent.futures``
(``TimeoutError``, ``BrokenExecutor``) is allowed: callers need them
to talk about backend failures; they cannot create concurrency.

Configure via ``[tool.simlint]``: ``backend-package`` names the
package that owns the primitives (default ``repro.exec.backend``);
``backend-allow`` lists dotted-module globs exempted for other reasons
(e.g. ``repro.obs.report`` shells out to ``git`` for provenance).
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Iterator, Optional

from repro.analysis.astutil import ImportMap, dotted_name
from repro.analysis.core import Finding, ModuleUnit, ProjectContext, Rule, Severity, register_rule

#: Modules whose import (or whose attribute use) means process/IPC
#: machinery. ``concurrent`` covers ``concurrent.futures``.
_BANNED_MODULES = ("subprocess", "multiprocessing", "socket", "concurrent")

#: ``from concurrent.futures import <name>`` that stays legal anywhere:
#: failure vocabulary, not concurrency.
_FUTURES_EXCEPTIONS = {
    "TimeoutError",
    "CancelledError",
    "BrokenExecutor",
    "InvalidStateError",
}

#: ``os.*`` calls that create processes.
_OS_BANNED_EXACT = {
    "os.fork",
    "os.forkpty",
    "os.popen",
    "os.posix_spawn",
    "os.posix_spawnp",
    "os.system",
}
_OS_BANNED_PREFIXES = ("os.exec", "os.spawn")


def _banned_root(module: Optional[str]) -> Optional[str]:
    if module is None:
        return None
    root = module.split(".", 1)[0]
    return root if root in _BANNED_MODULES else None


@register_rule
class BackendBoundary(Rule):
    """SL010: execution primitives only inside ``repro.exec.backend``."""

    id = "SL010"
    name = "backend-boundary"
    severity = Severity.ERROR
    description = "subprocess/executor/socket primitives belong in the backend package"

    def _exempt(self, module: Optional[str], project: ProjectContext) -> bool:
        if module is None:
            return False
        package = getattr(project.config, "backend_package", "repro.exec.backend")
        if module == package or module.startswith(package + "."):
            return True
        allow = getattr(project.config, "backend_allow", ())
        return any(fnmatch.fnmatchcase(module, pattern) for pattern in allow)

    def check(self, unit: ModuleUnit, project: ProjectContext) -> Iterator[Finding]:
        assert unit.tree is not None
        if self._exempt(unit.module, project):
            return
        package = getattr(project.config, "backend_package", "repro.exec.backend")
        imports = ImportMap(unit.tree)
        for node in ast.walk(unit.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = _banned_root(alias.name)
                    if root is not None:
                        yield self.finding(
                            unit.path,
                            node,
                            f"import of execution primitive '{alias.name}' outside "
                            f"{package} — go through the ExecutionBackend ABC",
                        )
            elif isinstance(node, ast.ImportFrom) and not node.level:
                root = _banned_root(node.module)
                if root is None:
                    continue
                if node.module == "concurrent.futures":
                    offenders = [
                        alias.name
                        for alias in node.names
                        if alias.name not in _FUTURES_EXCEPTIONS
                    ]
                    if not offenders:
                        continue
                    what = ", ".join(repr(name) for name in offenders)
                    yield self.finding(
                        unit.path,
                        node,
                        f"import of executor primitive(s) {what} from "
                        f"'concurrent.futures' outside {package} — "
                        "go through the ExecutionBackend ABC",
                    )
                    continue
                yield self.finding(
                    unit.path,
                    node,
                    f"import from execution primitive '{node.module}' outside "
                    f"{package} — go through the ExecutionBackend ABC",
                )
            elif isinstance(node, ast.Call):
                resolved = imports.resolve(dotted_name(node.func))
                if resolved is None:
                    continue
                if resolved in _OS_BANNED_EXACT or resolved.startswith(_OS_BANNED_PREFIXES):
                    yield self.finding(
                        unit.path,
                        node,
                        f"process-spawning call '{resolved}()' outside {package} — "
                        "go through the ExecutionBackend ABC",
                    )
