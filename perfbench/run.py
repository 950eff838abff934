"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload fig9-lab-tcp --seed 9 --seconds 40 --trace 0

``--trace 0`` repeats the workload in this process, untraced, while
``--seconds`` allows, and reports the end-to-end metrics (see
:func:`measure`). ``--trace 1`` runs the workload's first program run twice,
untraced and then traced, and reports the per-layer ledger; the full
ledger (count, total and self time per entry point) is also written to
``.perfbench/``. Metric names and units are those of ``BENCHMARK.json``.
Every run's output is checked; the last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import repro  # noqa: E402

if not Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"repro comes from {repro.__file__}, not from this checkout's src/")

from perfbench.clock import Reference, RunClock  # noqa: E402
from perfbench.tracer import Tracer  # noqa: E402
from perfbench.workloads import WORKLOADS, Workload, digest, load_expected  # noqa: E402


class Checker:
    """Checks each program run's output; counts runs attempted and failed."""

    def __init__(self, workload: Workload, expected: Dict[Tuple[str, int], str]):
        self.workload = workload
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.digests: Dict[int, str] = {}

    def verify(self, seed: int, result: Any, problems: Sequence[str] = ()) -> None:
        """Check one completed run; ``problems`` are failures found elsewhere."""
        problems = [*problems, *self.workload.check(result)]
        value = digest(result)
        want = self.expected.get((self.workload.name, seed))
        if want is not None and value != want:
            problems.append(f"digest {value} != expected {want}")
        first = seed not in self.digests
        seen = self.digests.setdefault(seed, value)
        if seen != value:
            problems.append(f"digest {value} differs from this seed's earlier run {seen}")
        if first:
            status = "unpinned" if want is None else "matches"
            print(f"digest {self.workload.name} seed={seed} {value} {status}")
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"FAILED {self.workload.name} seed={seed}: {problem}", file=sys.stderr)

    def crashed(self, seed: int) -> None:
        self.attempted += 1
        self.failed += 1
        print(f"FAILED {self.workload.name} seed={seed}: raised", file=sys.stderr)
        traceback.print_exc()


def run_pass(
    workload: Workload, inputs: List[int], checker: Checker, reference: Reference
) -> Optional[RunClock]:
    """Run ``inputs`` once under a :class:`RunClock`; None if a run raised.

    A ``gc.collect()`` first makes the collector run at the same points
    on every pass, so its pauses stay inside the segments that cause
    them. Outputs are checked after the pass, outside the segments.
    """
    gc.collect()
    clock = RunClock(reference, workload.chunk_s)
    results: List[Tuple[int, Any]] = []
    complete = True
    with clock:
        for run_seed in inputs:
            try:
                results.append((run_seed, workload.run(run_seed)))
            except Exception:
                checker.crashed(run_seed)
                complete = False
    for run_seed, result in results:
        checker.verify(run_seed, result)
    return clock if complete else None


def measure(workload: Workload, seed: int, seconds: float, checker: Checker) -> Dict[str, float]:
    """End-to-end metrics from untraced passes of the workload.

    A warm-up pass (page faults on a fresh heap, lazy imports) is
    checked but not timed. Then passes of the workload's inputs are made
    while ``seconds`` allows, at least one. Each pass is cut into run
    and setup segments, and each segment's time is scaled to the host's
    speed of the moment (see :mod:`perfbench.clock`). A segment's time
    is its median over the passes; set-up is the sum of the setup
    segments and run time the sum of the run segments.
    """
    reference = Reference()
    deadline = time.perf_counter() + seconds
    inputs = workload.inputs(seed)
    warmup = workload.warmup(seed) if workload.warmup else inputs
    if run_pass(workload, warmup, checker, reference) is None:
        raise RuntimeError(f"{workload.name}: no pass completed")
    kinds: List[str] = []
    passes: List[List[float]] = []
    sim_s = 0.0
    while True:
        pass_start = time.perf_counter()
        clock = run_pass(workload, inputs, checker, reference)
        if clock is None:
            break
        if passes and clock.kinds != kinds:
            raise RuntimeError(f"{workload.name}: passes made different Simulator.run calls")
        kinds = clock.kinds
        passes.append(clock.scaled())
        sim_s = clock.sim_s
        print(
            f"pass {len(passes)}: host_s={sum(clock.seconds):.4f} "
            f"scaled_s={sum(passes[-1]):.4f} "
            f"reference_ms={1000 * statistics.median(clock.references):.2f} "
            f"segments={len(kinds)}"
        )
        now = time.perf_counter()
        if now + (now - pass_start) > deadline:
            break
    if not passes:
        raise RuntimeError(f"{workload.name}: no pass completed")
    segments = [statistics.median(samples) for samples in zip(*passes)]
    setup_s = sum(value for value, kind in zip(segments, kinds) if kind == "setup")
    run_s = sum(value for value, kind in zip(segments, kinds) if kind == "run")
    return {
        "wall_s": setup_s + run_s,
        "setup_s": setup_s,
        "sim_rate": sim_s / run_s,
        # The reference loop's arena is the benchmark's, not the program's.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        - reference.arena_mb,
    }


def trace(workload: Workload, seed: int, checker: Checker, ledger_path: Path) -> Dict[str, float]:
    """Per-layer metrics of the first program run, traced.

    The same run is made untraced first: its digest must equal the
    traced one, and the wall-time difference is the tracing overhead.
    """
    run_seed = workload.inputs(seed)[0]
    gc.collect()
    start = time.perf_counter()
    untraced = workload.run(run_seed)
    untraced_wall = time.perf_counter() - start
    checker.verify(run_seed, untraced)
    del untraced
    gc.collect()
    with Tracer() as tracer:
        traced = workload.run(run_seed)
    events = tracer.layer_events()
    problems = []
    if sum(events.values()) != tracer.events_executed():
        problems.append(
            f"layer events {events} sum to {sum(events.values())}, "
            f"the engine fired {tracer.events_executed()}"
        )
    # Same seed as the untraced run, so this also fails the traced run
    # unless both give the same digest.
    checker.verify(run_seed, traced, problems)
    metrics = tracer.metrics()
    metrics["trace.overhead_s"] = tracer.ledger.total_s("other") - untraced_wall
    ledger_path.parent.mkdir(parents=True, exist_ok=True)
    with open(ledger_path, "w", encoding="utf-8") as handle:
        json.dump(
            {"workload": workload.name, "seed": run_seed, "metrics": metrics,
             **tracer.ledger.to_dict()},
            handle,
            indent=1,
            sort_keys=True,
        )
    return metrics


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = WORKLOADS[args.workload]
    checker = Checker(workload, load_expected())
    if args.trace:
        ledger_path = ROOT / ".perfbench" / f"ledger-{workload.name}-seed{args.seed}.json"
        values = trace(workload, args.seed, checker, ledger_path)
        declared = spec["per_layer"]
    else:
        values = measure(workload, args.seed, args.seconds, checker)
        declared = spec["end_to_end"]
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]}
        for entry in declared
    }
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
