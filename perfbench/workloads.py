"""The benchmark's workloads: what each runs, and how its output is checked.

Each workload runs public entry points of the program in this process:

- ``tab2-vehicular``: ``run_experiment("tab2", fast=True, seed=s)`` for
  a seed drawn from ``--seed``. Table 2's vehicular loop draws its
  worlds from the seed, and one seed's cost follows them (0.30-1.13 M
  events over seeds 100000-100109), so with any seed per run the spread
  over seeds would measure the seeds, not the code. The drawn seed is
  ``pool[seed % len(pool)]`` from the pool in ``pins.json``: seeds whose
  runs fire within 1.5% of the median event count (see
  ``perfbench/pool.py``). The untimed warm-up runs the default seed 3,
  so every run is also checked against the golden digest.
- ``fig9-lab-tcp``: ``run_experiment("fig9", fast=True, seed=s)``; the
  static two-AP lab with bulk TCP through shaped backhauls.
- ``metro-window``: the ``metro-core`` registry scenario (10,960 APs in
  four partition mediums) built and run for a two-second window through
  ``repro.scenario.build.run_shard``.

A result's digest is the SHA-256 of its canonical text, the same
identity ``spider-repro digest`` uses. Where a digest is known for a
seed, the output must match it: the experiment goldens in
``tests/goldens/experiment-digests.json`` at each experiment's default
seed, and ``perfbench/pins.json`` for every seed of the tab2 pool and
for the runs of the default and the held-out seed that have no golden.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.exec.cache import canonical_text
from repro.experiments.fig9_micro import CONFIG_NAMES as FIG9_CONFIGS
from repro.experiments.runner import run_experiment
from repro.experiments.tab2_throughput_connectivity import CONFIG_NAMES as TAB2_CONFIGS
from repro.scenario.build import run_shard
from repro.scenario.registry import scenario

ROOT = Path(__file__).resolve().parent.parent
GOLDENS = ROOT / "tests" / "goldens" / "experiment-digests.json"
PINS = Path(__file__).resolve().parent / "pins.json"

TAB2_DEFAULT_SEED = 3

#: Simulated seconds of the metro window. Its single ``Simulator.run``
#: call is timed in 0.1 s chunks (~0.3 host seconds each).
METRO_WINDOW_S = 2.0

#: tab2's ``Simulator.run`` calls (~250 simulated seconds, ~0.9 host
#: seconds each) are timed in chunks of this many simulated seconds.
TAB2_CHUNK_S = 100.0


@dataclass(frozen=True)
class Workload:
    """A named workload: its program runs and its output invariants."""

    name: str
    default_seed: int
    #: The experiment id whose golden digest applies at ``default_seed``.
    golden_id: Optional[str]
    #: seed -> the seeds of one pass (each is one program run).
    inputs: Callable[[int], List[int]]
    #: seed -> result of one program run.
    run: Callable[[int], Any]
    #: result -> list of invariant violations (empty when sound).
    check: Callable[[Any], List[str]]
    #: Longest timed unit, in simulated seconds (see ``RunClock``).
    chunk_s: Optional[float] = None
    #: seed -> the seeds of the untimed warm-up pass; default ``inputs``.
    warmup: Optional[Callable[[int], List[int]]] = None


def digest(result: Any) -> str:
    return hashlib.sha256(canonical_text(result).encode()).hexdigest()


def _tab2_pool_seed(seed: int) -> List[int]:
    with open(PINS, encoding="utf-8") as handle:
        pool = json.load(handle)["tab2_pool"]
    return [pool[seed % len(pool)]]


def _run_tab2(seed: int) -> Any:
    return run_experiment("tab2", fast=True, seed=seed)


def _check_tab2(result: Any) -> List[str]:
    rows = result.get("rows", [])
    problems = []
    if [row["config"] for row in rows] != list(TAB2_CONFIGS):
        problems.append(f"tab2 rows {[row['config'] for row in rows]}")
    for row in rows:
        if not row["throughput_kBps"] >= 0.0:
            problems.append(f"{row['config']}: throughput {row['throughput_kBps']}")
        if not 0.0 <= row["connectivity_pct"] <= 100.0:
            problems.append(f"{row['config']}: connectivity {row['connectivity_pct']}")
    return problems


def _run_fig9(seed: int) -> Any:
    return run_experiment("fig9", fast=True, seed=seed)


def _check_fig9(result: Any) -> List[str]:
    series = result.get("series", [])
    problems = []
    if [entry["config"] for entry in series] != list(FIG9_CONFIGS):
        problems.append(f"fig9 series {[entry['config'] for entry in series]}")
    rates = len(result.get("backhauls_bps", []))
    for entry in series:
        values = entry["throughput_kBps"]
        # Bulk TCP through a live AP moves data at every backhaul rate.
        if len(values) != rates or not all(value > 0.0 for value in values):
            problems.append(f"{entry['config']}: throughput {values}")
    return problems


def _run_metro(seed: int) -> Any:
    return run_shard(scenario("metro-core", seed=seed, duration=METRO_WINDOW_S).to_dict())


def _check_metro(result: Any) -> List[str]:
    drivers = result.get("drivers", {})
    if not drivers:
        return ["metro: no driver summaries"]
    return [
        f"metro {address}: {summary}"
        for address, summary in drivers.items()
        if summary["join_successes"] > summary["join_attempts"]
        or not 0.0 <= summary["connectivity_pct"] <= 100.0
    ]


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "tab2-vehicular", TAB2_DEFAULT_SEED, "tab2", _tab2_pool_seed, _run_tab2, _check_tab2,
            chunk_s=TAB2_CHUNK_S, warmup=lambda seed: [TAB2_DEFAULT_SEED],
        ),
        Workload("fig9-lab-tcp", 9, "fig9", lambda seed: [seed], _run_fig9, _check_fig9),
        Workload(
            "metro-window", 1, None, lambda seed: [seed], _run_metro, _check_metro, chunk_s=0.1
        ),
    )
}


def load_expected() -> Dict[Tuple[str, int], str]:
    """Known digests, keyed by (workload, seed of one program run)."""
    expected: Dict[Tuple[str, int], str] = {}
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)
    for name, by_seed in pins["digests"].items():
        for seed, value in by_seed.items():
            expected[(name, int(seed))] = value
    with open(GOLDENS, encoding="utf-8") as handle:
        goldens = json.load(handle)
    if goldens.get("fast") is not True:
        raise ValueError(f"{GOLDENS} does not hold fast-mode digests")
    for workload in WORKLOADS.values():
        if workload.golden_id is not None:
            expected[(workload.name, workload.default_seed)] = goldens["digests"][
                workload.golden_id
            ]
    return expected


def held_out_seed() -> int:
    """The seed kept out of development, for claims (see README)."""
    with open(PINS, encoding="utf-8") as handle:
        return int(json.load(handle)["held_out_seed"])
