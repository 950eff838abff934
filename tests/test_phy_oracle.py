"""Production ``Medium`` vs the naive ``ReferenceMedium`` (DESIGN.md §6.3).

Two layers of proof that the grid fan-out and the static-sender pair
cache change *nothing observable*:

- **Loss math has one home.** The broadcast loop's inlined flat-floor
  branch and the unicast ARQ path both owe their loss to
  ``propagation.combined_loss``; the agreement tests pin them
  bit-for-bit across the flat floor, the fringe roll-off, and
  interference extras.
- **Generated-world identity.** ~50 worlds sweeping radio count,
  mobile fraction, channel mix, interference, and seed run the same
  seeded traffic (with mid-run retunes and deafness) through
  production and through ``tests.oracle.ReferenceMedium``, which scans
  every radio in registration order; counters, delivery logs, drop
  traces, RSSI, and the number of RNG draws consumed must be
  byte-identical — asserted via SHA-256 digests of the canonical
  outcome. The worlds live in ``tests/oracle/worlds.py``;
  ``tests/test_phy_kernel.py`` pins their seed-17 digests.
"""

import math

import pytest

from repro.mac import frames
from repro.phy.propagation import PropagationModel, combined_loss
from repro.phy.radio import Medium, Radio
from repro.sim.engine import Simulator
from repro.sim.randomness import RandomStreams
from repro.world.geometry import Point
from repro.world.mobility import StaticMobility
from tests.oracle import ReferenceMedium
from tests.oracle.worlds import SHAPES, digest, populate, run_world, shape_id


# -- loss math: one formula, two call sites -----------------------------------


LOSS_MODELS = [
    PropagationModel(),
    PropagationModel(range_m=120.0, base_loss=0.15, edge_start=0.7),
    PropagationModel(range_m=50.0, base_loss=0.0, edge_start=0.99),
    PropagationModel(range_m=200.0, base_loss=0.4, edge_start=1.0),  # zero-width fringe
]


def _sweep_distances(model):
    """Distances hitting every branch, including exact boundaries."""
    eps = 1e-9
    return [
        0.0,
        model.fringe_start_m / 2,
        model.fringe_start_m - eps,
        model.fringe_start_m,
        model.fringe_start_m + eps,
        (model.fringe_start_m + model.range_m) / 2,
        model.range_m - eps,
        model.range_m,
        model.range_m + eps,
        model.range_m * 2,
    ]


class TestLossAgreement:
    @pytest.mark.parametrize("model", LOSS_MODELS, ids=lambda m: f"r{m.range_m:g}")
    def test_scalar_broadcast_inline_matches_combined_loss(self, model):
        # The broadcast loop inlines the flat-floor branch; the inlined
        # expression must equal the shared helper on every branch.
        for extra in (0.0, 0.3, 1.5):
            for dist in _sweep_distances(model):
                if dist > model.range_m:
                    continue  # the loop skips out-of-range radios entirely
                base = (
                    model.base_loss
                    if dist <= model.fringe_start_m
                    else model.loss_probability(dist)
                )
                loss = base + extra
                inline = loss if loss < 1.0 else 1.0
                assert inline == combined_loss(model, dist, extra)

    def test_unicast_path_uses_combined_loss(self):
        sim = Simulator()
        medium = Medium(sim, PropagationModel(), RandomStreams(5))
        for dist in _sweep_distances(medium.propagation):
            assert medium._loss_probability(1, dist) == combined_loss(
                medium.propagation, dist, medium.interference_loss(1)
            )


# -- generated-world identity -------------------------------------------------


WORLDS = [shape + (seed,) for shape in SHAPES for seed in (17, 29)]


def _world_id(params):
    *shape, seed = params
    return f"{shape_id(shape)}-s{seed}"

@pytest.mark.parametrize("params", WORLDS, ids=_world_id)
def test_generated_world_matches_reference(params):
    production = run_world(Medium, *params)
    reference = run_world(ReferenceMedium, *params)
    assert production["counters"] == reference["counters"]
    assert production["log"] == reference["log"]
    assert production["trace"] == reference["trace"]
    assert production["rng_probe"] == reference["rng_probe"]
    assert digest(production) == digest(reference)
    # The worlds must actually do something, or identity proves nothing.
    assert any(got for _, _, _, got, *_ in production["counters"])


class TestPairCache:
    def test_static_pair_cache_engages(self):
        sim = Simulator()
        medium = Medium(sim, PropagationModel(), RandomStreams(3))
        radios = populate(medium, 30, 0.2, (1,), seed=3)
        sender = radios[0]
        for _ in range(3):
            sender.transmit(frames.beacon(sender.name))
            sim.run()
        assert sender._pair_state is not None
        _, channel, static_v, mobile_v, statics, mobiles = sender._pair_state
        assert channel == 1
        # Geometry matches a fresh scalar derivation, entry for entry.
        model = medium.propagation
        for reg_seq, radio, base, rssi in statics:
            dist = math.hypot(
                sender._position_value.x - radio._position_value.x,
                sender._position_value.y - radio._position_value.y,
            )
            assert dist <= model.range_m
            expected = (
                model.base_loss
                if dist <= model.fringe_start_m
                else model.loss_probability(dist)
            )
            assert base == expected
            assert rssi == medium.rssi_at(dist)
            assert radio.reg_seq == reg_seq

    def test_mobile_churn_refreshes_only_mobile_half(self):
        sim = Simulator()
        medium = Medium(sim, PropagationModel(), RandomStreams(3))
        radios = populate(medium, 30, 0.3, (1, 6), seed=9)
        sender = next(r for r in radios if r._static and r.channel == 1)
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        statics_before = sender._pair_state[4]
        mover = next(r for r in radios if not r._static and r.channel == 6)
        mover.set_channel(1)
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        # Static half survived the mobile churn by identity; the mobile
        # half now includes the retuned radio.
        assert sender._pair_state[4] is statics_before
        assert any(radio is mover for _, radio in sender._pair_state[5])

    def test_static_membership_change_rebuilds(self):
        sim = Simulator()
        medium = Medium(sim, PropagationModel(), RandomStreams(3))
        radios = populate(medium, 30, 0.0, (1,), seed=5)
        sender = radios[0]
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        statics_before = sender._pair_state[4]
        joiner = Radio(
            medium,
            StaticMobility(Point(sender._position_value.x + 5.0,
                                 sender._position_value.y)),
            1, name="joiner", address="joiner",
        )
        sender.transmit(frames.beacon(sender.name))
        sim.run()
        assert sender._pair_state[4] is not statics_before
        assert any(radio is joiner for _, radio, _, _ in sender._pair_state[4])

    def test_reregistration_never_serves_stale_geometry(self):
        # A neighbour unregisters and re-registers far away under a new
        # mobility: the pair cache must re-derive, and the sender's own
        # re-registration (partition handoff) clears its held state.
        def outcome(medium_class):
            sim = Simulator()
            medium = medium_class(sim, PropagationModel(), RandomStreams(11))
            sender = Radio(medium, StaticMobility(Point(0.0, 0.0)), 1,
                           name="s", address="s")
            neigh = Radio(medium, StaticMobility(Point(30.0, 0.0)), 1,
                          name="n", address="n")
            log = []
            neigh.on_receive = lambda frame: log.append(("near", sim.now))
            sender.transmit(frames.beacon("s"))
            sim.run()
            medium.unregister(neigh)
            neigh.mobility = StaticMobility(Point(5000.0, 0.0))
            medium.register(neigh)
            sender.transmit(frames.beacon("s"))
            sim.run()
            return log, neigh.frames_received, neigh.frames_lost, medium._rng.random()

        assert outcome(Medium) == outcome(ReferenceMedium)

    def test_handoff_clears_pair_state(self):
        sim = Simulator()
        medium_a = Medium(sim, PropagationModel(), RandomStreams(1))
        medium_b = Medium(sim, PropagationModel(), RandomStreams(2), stream_name="phy-b")
        sender = Radio(medium_a, StaticMobility(Point(0.0, 0.0)), 1, name="s")
        Radio(medium_a, StaticMobility(Point(10.0, 0.0)), 1, name="a")
        sender.transmit(frames.beacon("s"))
        sim.run()
        assert sender._pair_state is not None
        medium_a.unregister(sender)
        sender.medium = medium_b
        medium_b.register(sender)
        assert sender._pair_state is None

