"""Tests of the benchmark itself: ``python3 -m pytest perfbench -q``."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.clock import REFERENCE_S, Reference, RunClock  # noqa: E402
from perfbench.ledger import Ledger  # noqa: E402
from perfbench.pool import select  # noqa: E402
from perfbench.run import Checker, measure  # noqa: E402
from perfbench.tracer import ENTRY_POINTS, Tracer, _mobility_classes  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    PINS,
    WORKLOADS,
    Workload,
    digest,
    held_out_seed,
    load_expected,
)
from repro.drivers.base import VirtualInterface  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.obs.spans import current_profiler  # noqa: E402
from repro.phy.radio import Radio  # noqa: E402
from repro.scenario.build import run_shard  # noqa: E402
from repro.scenario.registry import scenario  # noqa: E402
from repro.sim import engine  # noqa: E402
from repro.sim.engine import EventHandle, Simulator  # noqa: E402

with open(ROOT / "BENCHMARK.json", encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


class FakeClock:
    def __init__(self) -> None:
        self.t = 0.0

    def __call__(self) -> float:
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    ledger = Ledger(clock)

    def inner() -> None:
        clock.t += 2.0

    def outer() -> None:
        clock.t += 1.0
        spanned_inner()
        clock.t += 3.0
        spanned_inner()

    spanned_inner = ledger.wrap(inner, "inner")
    spanned_outer = ledger.wrap(outer, "outer")
    with ledger.span("root"):
        clock.t += 0.5
        spanned_outer()
        clock.t += 0.25

    assert ledger.stats["inner"] == [2, 4.0, 4.0]
    assert ledger.stats["outer"] == [1, 8.0, 4.0]
    assert ledger.stats["root"] == [1, 8.75, 0.75]
    assert sum(stat[2] for stat in ledger.stats.values()) == ledger.total_s("root")


def test_span_that_raises_is_still_recorded():
    clock = FakeClock()
    ledger = Ledger(clock)

    def boom() -> None:
        clock.t += 1.5
        raise ValueError("boom")

    spanned = ledger.wrap(boom, "boom")
    with ledger.span("root"):
        with pytest.raises(ValueError):
            spanned()
        clock.t += 1.0
    assert ledger.stats["boom"] == [1, 1.5, 1.5]
    assert ledger.stats["root"] == [1, 2.5, 1.0]


def _tiny_workload(run=None) -> Workload:
    def default_run(seed: int):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        return {"seed": seed}

    return Workload(
        name="tiny",
        default_seed=1,
        golden_id=None,
        inputs=lambda seed: [seed],
        run=run or default_run,
        check=lambda result: [],
    )


def test_matching_digest_passes():
    workload = _tiny_workload()
    checker = Checker(workload, {("tiny", 4): digest({"seed": 4})})
    measure(workload, 4, 0.0, checker)
    assert (checker.attempted, checker.failed) == (2, 0)  # the warm-up pass and a timed one


def test_wrong_digest_counts_as_failed():
    workload = _tiny_workload()
    checker = Checker(workload, {("tiny", 4): "0" * 64})
    values = measure(workload, 4, 0.0, checker)
    assert (checker.attempted, checker.failed) == (2, 2)
    assert values["wall_s"] > 0.0  # the run completed; only its output was wrong


def test_raising_run_counts_as_failed():
    def explode(seed: int):
        raise RuntimeError("injected")

    checker = Checker(_tiny_workload(explode), {})
    with pytest.raises(RuntimeError, match="no pass completed"):
        measure(checker.workload, 4, 0.0, checker)
    assert (checker.attempted, checker.failed) == (1, 1)


def _patched_attributes():
    owners = {owner for owner, _, _ in ENTRY_POINTS}
    owners |= {Simulator, EventHandle, VirtualInterface, Radio, *_mobility_classes()}
    return {(owner, name): value for owner in owners for name, value in vars(owner).items()}


def test_untraced_run_sees_no_tracing_hooks():
    before = _patched_attributes()
    seen = {}

    def run(seed: int):
        seen["schedule"] = Simulator.schedule
        seen["cancel"] = EventHandle.cancel
        seen["profiler"] = current_profiler()
        seen["metrics"] = engine._default_metrics
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        return {"seed": seed}

    measure(_tiny_workload(run), 1, 0.0, Checker(_tiny_workload(run), {}))
    assert seen["schedule"] is before[(Simulator, "schedule")]
    assert seen["cancel"] is before[(EventHandle, "cancel")]
    assert seen["profiler"] is None and seen["metrics"] is None
    assert _patched_attributes() == before


def test_tracer_restores_everything_even_when_the_run_raises():
    before = _patched_attributes()
    with pytest.raises(RuntimeError):
        with Tracer():
            assert Simulator.schedule is not before[(Simulator, "schedule")]
            raise RuntimeError("injected")
    assert _patched_attributes() == before
    assert current_profiler() is None and engine._default_metrics is None


SMALL_RUNS = {
    "fig9-lab": lambda: run_experiment("fig9", fast=True, backhauls=(1e6,), duration=2.0),
    "metro-small": lambda: run_shard(scenario("metro-core-small", duration=10.0).to_dict()),
}


@pytest.mark.parametrize("name", sorted(SMALL_RUNS))
def test_traced_run_is_faithful(name):
    untraced = digest(SMALL_RUNS[name]())
    with Tracer() as tracer:
        traced = digest(SMALL_RUNS[name]())
    assert traced == untraced
    metrics = tracer.metrics()
    events = tracer.layer_events()
    assert sum(events.values()) == tracer.events_executed() == metrics["sim.events"] > 0
    declared = {entry["name"] for entry in SPEC["per_layer"]}
    assert declared - set(metrics) == {"trace.overhead_s"}
    self_total = sum(stat[2] for stat in tracer.ledger.stats.values())
    assert self_total == pytest.approx(tracer.ledger.total_s("other"))


def test_chunked_run_fires_the_same_callbacks():
    spec = scenario("metro-core-small", duration=3.0).to_dict()
    plain = digest(run_shard(spec))
    clock = RunClock(Reference(), chunk_s=0.25)
    with clock:
        chunked = digest(run_shard(spec))
    assert chunked == plain
    assert clock.kinds.count("run") == 12
    assert len(clock.references) == len(clock.seconds) + 1 == len(clock.kinds) + 1
    assert clock.sim_s == pytest.approx(3.0)


def test_scaled_time_divides_by_the_bracketing_references():
    clock = RunClock(Reference())
    clock.kinds = ["setup", "run"]
    clock.seconds = [1.0, 3.0]
    clock.references = [REFERENCE_S, 3 * REFERENCE_S, REFERENCE_S]
    assert clock.scaled() == pytest.approx([0.5, 1.5])


def test_default_and_held_out_runs_are_pinned():
    expected = load_expected()
    for workload in WORKLOADS.values():
        for seed in (workload.default_seed, held_out_seed()):
            for run_seed in workload.inputs(seed) + (workload.warmup or workload.inputs)(seed):
                assert (workload.name, run_seed) in expected


def test_pool_keeps_the_seeds_near_the_median_and_all_are_pinned():
    assert select({1: 1000, 2: 1010, 3: 2000, 4: 990, 5: 500}, 0.015) == [1, 2, 4]
    expected = load_expected()
    with open(PINS, encoding="utf-8") as handle:
        pool = json.load(handle)["tab2_pool"]
    assert pool and all(("tab2-vehicular", seed) in expected for seed in pool)


def test_benchmark_json_follows_its_schema():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert [entry["name"] for entry in SPEC["workloads"]] == list(WORKLOADS)
    names = [entry["name"] for key in ("workloads", "end_to_end", "per_layer")
             for entry in SPEC[key]]
    assert len(names) == len(set(names))
    assert all(0 < entry["bound"] <= 0.25 for entry in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower",
            "bound": max(entry["bound"] for entry in SPEC["end_to_end"])} in SPEC["end_to_end"]
