"""Seeded generated worlds for proving PHY delivery byte for byte.

A world is a shape ``(n_static, mobile_frac, layout, adjacent_loss)``
plus a seed: ``n_static`` static radios scattered over a 340 m square,
``n_static * mobile_frac`` constant-velocity radios, the channels of
``layout`` dealt round-robin, and seeded beacons, mid-run retunes and
deafness. ``run_world`` runs one through any ``Medium`` class and
returns everything observable — delivery log, per-radio counters, drop
trace, and the PHY stream position — and ``digest`` hashes it.
"""

from __future__ import annotations

import hashlib
import json
import random

from repro.mac import frames
from repro.obs.trace import TraceBus, TraceRecorder
from repro.phy.propagation import PropagationModel
from repro.phy.radio import Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import ConstantVelocityMobility, StaticMobility

LAYOUTS = {
    "single": (1,),
    "orthogonal": (1, 6, 11),
    "overlap": (1, 3, 6),
}


def _shapes():
    shapes = []
    for n_static in (8, 30, 64):
        for mobile_frac in (0.0, 0.25):
            for layout in sorted(LAYOUTS):
                shapes.append((n_static, mobile_frac, layout, 0.25))
    # Interference ablation on the overlapping mix (the only layout
    # where adjacent-channel loss changes anything).
    for n_static in (30, 64):
        shapes.append((n_static, 0.25, "overlap", 0.0))
    # Mobile-heavy mixes: the two-pointer static/mobile merge under load.
    for layout in ("orthogonal", "overlap"):
        shapes.append((30, 0.5, layout, 0.25))
    # Big worlds: static neighbourhoods of dozens of radios per cell.
    for mobile_frac in (0.1, 0.5):
        shapes.append((130, mobile_frac, "single", 0.25))
    shapes.append((100, 0.25, "overlap", 0.25))
    return shapes


SHAPES = _shapes()


def shape_id(shape):
    n, frac, layout, adj = shape
    return f"n{n}-m{int(frac * 100)}-{layout}-adj{int(adj * 100)}"


def populate(medium, n_static, mobile_frac, channels, seed):
    rng = random.Random(seed)
    radios = []
    for i in range(n_static):
        position = Point(rng.uniform(0.0, 340.0), rng.uniform(0.0, 340.0))
        radios.append(
            Radio(medium, StaticMobility(position), channels[i % len(channels)],
                  name=f"s{i}", address=f"s{i}")
        )
    for j in range(int(n_static * mobile_frac)):
        origin = Point(rng.uniform(0.0, 340.0), rng.uniform(0.0, 340.0))
        velocity = Point(rng.uniform(-25.0, 25.0), rng.uniform(-25.0, 25.0))
        radios.append(
            Radio(medium, ConstantVelocityMobility(origin, velocity),
                  channels[j % len(channels)], name=f"m{j}", address=f"m{j}")
        )
    return radios


def schedule_traffic(sim, radios, channels, seed):
    """Seeded beacons, retunes, and deafness across the run window."""
    rng = random.Random(seed + 1)
    for radio in radios:
        shots = rng.randrange(2, 5)
        for _ in range(shots):
            sim.schedule(rng.uniform(0.0, 4.0), radio.transmit,
                         frames.beacon(radio.name))
    churners = [r for r in radios if rng.random() < 0.3]
    for radio in churners:
        target = channels[rng.randrange(len(channels))]
        sim.schedule(rng.uniform(0.5, 3.0), radio.set_channel, target)
    for radio in radios:
        if rng.random() < 0.15:
            sim.schedule(rng.uniform(0.0, 3.5), radio.go_deaf,
                         rng.uniform(0.05, 0.6))


def run_world(medium_class, n_static, mobile_frac, layout, adjacent_loss, seed):
    channels = LAYOUTS[layout]
    sim = Simulator()
    bus = TraceBus()
    recorder = TraceRecorder(bus)
    bus.attach(sim)
    medium = medium_class(
        sim,
        PropagationModel(range_m=120.0, base_loss=0.15, edge_start=0.7),
        RandomStreams(seed),
        adjacent_channel_loss=adjacent_loss,
    )
    radios = populate(medium, n_static, mobile_frac, channels, seed)
    log = []
    for radio in radios:
        radio.on_receive = (
            lambda frame, name=radio.name: log.append((sim.now, name, frame.src))
        )
    schedule_traffic(sim, radios, channels, seed)
    sim.run()
    counters = [
        (r.name, r.channel, r.frames_sent, r.frames_received, r.frames_lost,
         r.last_rssi, r.tx_airtime, r.rx_airtime, r.deaf_time)
        for r in radios
    ]
    trace_log = [
        (e.sim_t, e.kind, tuple(sorted(e.fields.items()))) for e in recorder.events
    ]
    return {
        "log": log,
        "counters": counters,
        "trace": trace_log,
        "rng_probe": medium._rng.random(),  # same #draws consumed
    }


def digest(outcome):
    text = json.dumps(
        {
            "log": outcome["log"],
            "counters": outcome["counters"],
            "trace": outcome["trace"],
            "rng_probe": outcome["rng_probe"],
        },
        sort_keys=True,
    )
    return hashlib.sha256(text.encode()).hexdigest()
