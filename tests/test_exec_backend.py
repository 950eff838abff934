"""Tests for ``repro.exec.backend``: the ABC contract and both
implementations, with emphasis on the failure paths the orchestrator's
retry/degradation logic depends on.
"""

import os

import pytest

from repro.exec import ExecPolicy, execute_shards
from repro.exec.backend import (
    BackendBroken,
    LocalPoolBackend,
    QueueDirBackend,
    RemoteShardError,
    WorkerTimeout,
    check_backend_spec,
    make_backend,
    parse_backend_spec,
)
from repro.exec.backend.base import ShardRequest
from repro.exec.backend.queue_worker import CLAIMED, PENDING, claim_one, drain, write_atomic
from repro.exec.shards import Shard
from repro.exec.workers import SOURCE_INLINE

STUB = "tests.exec_stub"


def quick_policy(**kwargs):
    defaults = dict(jobs=2, backoff_base=0.0)
    defaults.update(kwargs)
    return ExecPolicy(**defaults)


def request(key="s", **params):
    return ShardRequest(
        experiment="stub", module_name=STUB, func_name="shard_value", key=key, params=params
    )


def value_shards(n):
    return [Shard(key=f"s{i}", params={"value": i}) for i in range(n)]


# -- spec parsing / factory ----------------------------------------------


class TestBackendSpec:
    def test_parse_kinds(self):
        assert parse_backend_spec("local") == ("local", "", {})
        assert parse_backend_spec("local:4") == ("local", "4", {})
        kind, arg, options = parse_backend_spec("queuedir:/tmp/q?workers=3&poll=0.1")
        assert (kind, arg) == ("queuedir", "/tmp/q")
        assert options == {"workers": "3", "poll": "0.1"}

    def test_none_and_bare_local_mean_builtin_path(self):
        assert make_backend(None, jobs=4) is None
        assert make_backend("local", jobs=4) is None

    def test_local_n_builds_pool(self):
        backend = make_backend("local:2")
        try:
            assert isinstance(backend, LocalPoolBackend)
            assert backend.capacity() == 2
        finally:
            backend.shutdown()

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            make_backend("slurm:cluster")

    def test_unknown_option_rejected_before_construction(self):
        with pytest.raises(ValueError, match="nope"):
            make_backend("queuedir:/tmp/q?nope=1")

    def test_queuedir_spec_leaves_workers_to_jobs(self, tmp_path):
        spool = tmp_path / "q"
        assert check_backend_spec(f"queuedir:{spool}?poll=0.5") == (
            "queuedir",
            {"root": str(spool), "poll_interval": 0.5},
        )
        assert not spool.exists()  # checking starts nothing

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("ssh:alpha*4", "unknown backend kind 'ssh'"),
            ("local:abc", "worker count must be an integer, got 'abc'"),
            ("local:2?workers=2", "local takes no"),
            ("queuedir:{q}?bogus=1", r"unknown option\(s\) \['bogus'\]"),
            ("queuedir:{q}?workers=two", "workers must be an integer"),
            ("queuedir:{q}?poll=fast", "poll must be a number"),
            ("queuedir:{q}?poll=-1", "poll must be a finite number"),
            ("queuedir:{q}?poll", "malformed option"),
            ("queuedir:", "needs a spool path"),
        ],
    )
    def test_bad_spec_rejected_before_anything_starts(self, tmp_path, spec, message):
        spool = tmp_path / "q"
        spec = spec.format(q=spool)
        with pytest.raises(ValueError, match=message):
            check_backend_spec(spec)
        with pytest.raises(ValueError, match=message):
            make_backend(spec, jobs=2)
        assert not spool.exists()

    @pytest.mark.parametrize("spec", ["local:abc", "queuedir:/q?bogus=1", "ssh:alpha*4"])
    def test_cli_rejects_bad_spec_with_one_line(self, capsys, spec):
        from repro.experiments import runner

        assert runner.main(["run", "fig2", "--fast", "--backend", spec]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: --backend: backend spec ")
        assert captured.err.count("\n") == 1


# -- the generic orchestrator over a scriptable fake ----------------------


class _ScriptedFuture:
    def __init__(self, outcome):
        self.outcome = outcome

    def result(self, timeout=None):
        if isinstance(self.outcome, BaseException):
            raise self.outcome
        return {"result": self.outcome, "worker_seconds": 0.001, "worker": "fake/1"}


class _ScriptedBackend:
    """Backend whose submit() pops scripted outcomes per shard key."""

    name = "fake"
    bus = None

    def __init__(self, script):
        self.script = {key: list(outcomes) for key, outcomes in script.items()}
        self.submits = []

    def submit(self, req):
        self.submits.append(req.key)
        outcomes = self.script[req.key]
        outcome = outcomes.pop(0) if len(outcomes) > 1 else outcomes[0]
        if isinstance(outcome, BackendBroken):
            raise outcome
        return _ScriptedFuture(outcome)

    def capacity(self):
        return 2

    def shutdown(self, wait=False):
        pass


class TestOrchestratorOverABC:
    def test_worker_timeout_resubmits_then_succeeds(self):
        backend = _ScriptedBackend({"s0": [WorkerTimeout("worker died"), 42]})
        outcomes = execute_shards(
            STUB,
            "shard_value",
            [Shard(key="s0", params={"value": 42})],
            quick_policy(max_retries=2),
            backend=backend,
        )
        assert outcomes[0].result == 42
        assert outcomes[0].attempts == 2
        assert outcomes[0].source == "fake"
        assert backend.submits == ["s0", "s0"]

    def test_backend_broken_mid_run_degrades_remaining_inline(self):
        backend = _ScriptedBackend(
            {"s0": [0], "s1": [BackendBroken("gone")], "s2": [BackendBroken("gone")]}
        )
        outcomes = execute_shards(
            STUB, "shard_value", value_shards(3), quick_policy(max_retries=1), backend=backend
        )
        assert [o.result for o in outcomes] == [0, 1, 2]
        assert outcomes[0].source == "fake"
        assert [o.source for o in outcomes[1:]] == [SOURCE_INLINE] * 2

    def test_retries_exhausted_gets_final_inline_attempt(self):
        backend = _ScriptedBackend({"s0": [RemoteShardError("shard blew up")]})
        outcomes = execute_shards(
            STUB,
            "shard_value",
            [Shard(key="s0", params={"value": 7})],
            quick_policy(max_retries=1),
            backend=backend,
        )
        assert outcomes[0].result == 7
        assert outcomes[0].source == SOURCE_INLINE
        assert outcomes[0].attempts == 3  # 2 backend attempts + 1 inline

    def test_zero_capacity_backend_is_bypassed(self):
        backend = _ScriptedBackend({})
        backend.capacity = lambda: 0
        outcomes = execute_shards(
            STUB, "shard_value", value_shards(2), quick_policy(), backend=backend
        )
        assert [o.source for o in outcomes] == [SOURCE_INLINE] * 2
        assert backend.submits == []


# -- LocalPoolBackend -----------------------------------------------------


class TestLocalPoolBackend:
    def test_abc_round_trip(self):
        backend = LocalPoolBackend(max_workers=2)
        try:
            payload = backend.submit(request(value=5)).result(timeout=30)
            assert payload["result"] == 5
            assert payload["worker"] == "pool"
            assert payload["worker_seconds"] > 0
        finally:
            backend.shutdown()

    def test_pool_death_raises_backend_broken(self):
        backend = LocalPoolBackend(max_workers=1)
        try:
            dead = ShardRequest(
                experiment="stub",
                module_name=STUB,
                func_name="die_unless_parent",
                key="die",
                params={"parent_pid": 0},
            )
            with pytest.raises(BackendBroken):
                backend.submit(dead).result(timeout=30)
        finally:
            backend.shutdown()

    def test_explicit_pool_death_degrades_through_orchestrator(self):
        backend = LocalPoolBackend(max_workers=2)
        try:
            shards = [
                Shard(key=f"s{i}", params={"parent_pid": os.getpid(), "value": i})
                for i in range(3)
            ]
            outcomes = execute_shards(
                STUB,
                "die_unless_parent",
                shards,
                quick_policy(max_retries=1),
                backend=backend,
            )
            assert [o.result for o in outcomes] == [0, 1, 2]
            assert all(o.source == SOURCE_INLINE for o in outcomes)
        finally:
            backend.shutdown()


# -- QueueDirBackend ------------------------------------------------------


class TestQueueDirBackend:
    def test_round_trip_with_spawned_workers(self, tmp_path):
        backend = QueueDirBackend(tmp_path / "spool", workers=2)
        try:
            outcomes = execute_shards(
                STUB,
                "shard_value",
                value_shards(4),
                quick_policy(shard_timeout=60),
                backend=backend,
            )
            assert [o.result for o in outcomes] == [0, 1, 2, 3]
            assert all(o.source == "queue" for o in outcomes)
            assert all(o.worker.startswith("queue-worker/") for o in outcomes)
        finally:
            backend.shutdown()

    def test_external_worker_drains_spool(self, tmp_path):
        spool = tmp_path / "spool"
        backend = QueueDirBackend(spool, workers=0)
        try:
            future = backend.submit(request(value=9))
            assert drain(spool, poll=0.01, max_tasks=1) == 1
            assert future.result(timeout=5)["result"] == 9
        finally:
            backend.shutdown()

    def test_claim_is_exactly_once(self, tmp_path):
        spool = tmp_path / "spool"
        for i in range(3):
            write_atomic(spool / PENDING / f"t{i}.task", {"id": f"t{i}"})
        claims = [claim_one(spool), claim_one(spool), claim_one(spool)]
        assert claim_one(spool) is None
        assert len({c.name for c in claims}) == 3
        assert all(c.parent.name == CLAIMED for c in claims)

    def test_failed_shard_raises_remote_error_with_traceback(self, tmp_path):
        spool = tmp_path / "spool"
        backend = QueueDirBackend(spool, workers=0)
        try:
            req = ShardRequest(
                experiment="stub",
                module_name=STUB,
                func_name="flaky",
                key="flaky",
                params={"counter_path": str(tmp_path / "c"), "fail_times": 99},
            )
            future = backend.submit(req)
            drain(spool, poll=0.01, max_tasks=1)
            with pytest.raises(RemoteShardError, match="flaky") as info:
                future.result(timeout=5)
            assert "transient failure" in info.value.remote_traceback
        finally:
            backend.shutdown()

    def test_workers_keep_dying_degrades_inline(self, tmp_path):
        backend = QueueDirBackend(tmp_path / "spool", workers=1, poll_interval=0.01)
        try:
            shards = [
                Shard(key=f"s{i}", params={"parent_pid": os.getpid(), "value": i})
                for i in range(2)
            ]
            outcomes = execute_shards(
                STUB,
                "die_unless_parent",
                shards,
                quick_policy(max_retries=2, shard_timeout=60),
                backend=backend,
            )
            assert [o.result for o in outcomes] == [0, 1]
            assert all(o.source == SOURCE_INLINE for o in outcomes)
        finally:
            backend.shutdown()

    def test_worker_death_resubmits(self, tmp_path):
        backend = QueueDirBackend(tmp_path / "spool", workers=1, poll_interval=0.01)
        try:
            shard = Shard(
                key="crash",
                params={"counter_path": str(tmp_path / "c"), "parent_pid": os.getpid(), "value": 7},
            )
            outcomes = execute_shards(
                STUB,
                "die_first_attempt",
                [shard],
                quick_policy(max_retries=2, shard_timeout=60),
                backend=backend,
            )
            # The dead worker's orphaned claim is reaped (WorkerTimeout),
            # the shard is resubmitted, and a respawned worker runs it.
            assert [(o.result, o.source, o.attempts) for o in outcomes] == [(7, "queue", 2)]
            assert outcomes[0].worker.startswith("queue-worker/")
        finally:
            backend.shutdown()

    def test_stop_marker_cleared_on_reuse(self, tmp_path):
        spool = tmp_path / "spool"
        first = QueueDirBackend(spool, workers=0)
        first.shutdown()
        assert (spool / "stop").exists()
        second = QueueDirBackend(spool, workers=0)
        try:
            assert not (spool / "stop").exists()  # resume restarts service
        finally:
            second.shutdown()
