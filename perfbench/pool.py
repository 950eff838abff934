"""Choose the tab2 seed pool: seeds whose Table 2 runs do the same work.

One tab2 seed's cost follows its world: over seeds 100000-100109 a run
fired from 0.30 M to 1.13 M events. The ``tab2-vehicular`` workload draws
its seed from a pool, so that the spread of its timings over ``--seed``
measures the code, not the seeds. The pool holds the candidates whose
event counts lie within :data:`EVENTS_TOLERANCE` of the candidates'
median and, of those, the ones whose run time lies within
:data:`TIME_TOLERANCE` of their median: seeds with the same event count
still took from 0.85x to 1.1x the median time. Run times are scaled
(see :mod:`perfbench.clock`) and are the median of
:data:`TIME_ROUNDS` interleaved rounds. Every pool seed's digest is
pinned, so every run is checked.

Usage, from the root of a checkout (a few seconds per candidate)::

    python3 perfbench/pool.py --first 100000 --count 110

It rewrites the ``tab2_pool`` entry and the pool's digests in
``perfbench/pins.json``.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.clock import Reference, RunClock  # noqa: E402
from perfbench.workloads import PINS, WORKLOADS, digest  # noqa: E402
from repro.experiments.runner import run_experiment  # noqa: E402
from repro.sim.engine import Simulator  # noqa: E402

#: Largest relative distance of a pool seed's event count, then of its
#: run time, from the median of the seeds still in the running.
EVENTS_TOLERANCE = 0.015
TIME_TOLERANCE = 0.06
TIME_ROUNDS = 2


def scan(seed: int) -> Tuple[int, str]:
    """Events fired and result digest of one fast tab2 run."""
    original = Simulator.run
    fired = [0]

    def run(sim: Simulator, until: Optional[float] = None) -> None:
        before = sim.events_executed
        try:
            original(sim, until)
        finally:
            fired[0] += sim.events_executed - before

    Simulator.run = run
    try:
        result = run_experiment("tab2", fast=True, seed=seed)
    finally:
        Simulator.run = original
    return fired[0], digest(result)


def run_times(seeds: Sequence[int]) -> Dict[int, float]:
    """Median scaled run time of each seed over TIME_ROUNDS rounds."""
    workload = WORKLOADS["tab2-vehicular"]
    reference = Reference()
    times: Dict[int, List[float]] = {seed: [] for seed in seeds}
    for _ in range(TIME_ROUNDS):
        for seed in seeds:
            gc.collect()
            clock = RunClock(reference, workload.chunk_s)
            with clock:
                workload.run(seed)
            times[seed].append(sum(clock.scaled()))
    return {seed: statistics.median(values) for seed, values in times.items()}


def select(values: Dict[int, float], tolerance: float) -> List[int]:
    """The seeds within ``tolerance`` of the median value, in order."""
    median = statistics.median(values.values())
    return sorted(seed for seed, value in values.items()
                  if abs(value - median) <= tolerance * median)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--first", type=int, default=100_000)
    parser.add_argument("--count", type=int, default=110)
    args = parser.parse_args(argv)
    events: Dict[int, int] = {}
    digests: Dict[int, str] = {}
    for seed in range(args.first, args.first + args.count):
        events[seed], digests[seed] = scan(seed)
        print(f"seed={seed} events={events[seed]}", flush=True)
    similar = select(events, EVENTS_TOLERANCE)
    # One untimed run first, so that no seed's time pays for the warm-up.
    WORKLOADS["tab2-vehicular"].run(similar[0])
    times = run_times(similar)
    for seed in similar:
        print(f"seed={seed} events={events[seed]} scaled_s={times[seed]:.3f}")
    pool = select(times, TIME_TOLERANCE)
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    pins["tab2_pool"] = pool
    pins["digests"]["tab2-vehicular"] = {str(seed): digests[seed] for seed in pool}
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(f"pool of {len(pool)} seeds: {pool}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
