"""``ReferenceMedium``: broadcast delivery as one registration-order scan.

Production ``Medium`` delivers a broadcast through a spatial grid and,
for static senders, a cached list of precomputed receiver pairs
(DESIGN.md §6.2–§6.3). This subclass throws all of that away: every
completion walks the whole registry in registration order, keeps the
radios tuned to the channel, and runs the range check, loss draw and
delivery for each, with no snapshot, index or cache. That is the
historical definition of delivery order — and hence of the per-receiver
RNG draw order — so any production run must match it byte for byte.

The checks, float expressions and draw order are the production scalar
loop's: the ``|dx|`` reject, ``math.hypot`` against the range, the
interference extra computed once per completion, and the path loss via
``combined_loss`` (which the flat-floor shortcut in production is
pinned equal to by ``tests/test_phy_oracle.py``). Everything else —
registration, retunes, unicast, interference, airtime — is inherited
unchanged.
"""

from __future__ import annotations

import math
from typing import Any, Optional

from repro.obs import trace as tr
from repro.phy.propagation import combined_loss
from repro.phy.radio import Medium, Radio


class ReferenceMedium(Medium):
    """A ``Medium`` whose broadcast fan-out scans every radio."""

    def _deliver_broadcast(
        self, sender: Radio, frame: Any, channel: int, airtime: Optional[float] = None
    ) -> None:
        now = self.sim.now
        origin = sender.position()
        extra_loss = self.interference_loss(channel)
        frame_air = self.airtime(frame) if airtime is None else airtime
        range_m = self.propagation.range_m
        trace = self.sim.trace
        # Registration order as of the completion; channel and deafness
        # are re-checked at each visit.
        for radio in list(self._radios):
            if radio is sender or radio.channel != channel or now < radio.deaf_until:
                continue
            position = radio.position()
            dx = origin.x - position.x
            if dx > range_m or -dx > range_m:
                continue
            dist = math.hypot(dx, origin.y - position.y)
            if dist > range_m:
                continue
            if self._rng.random() < combined_loss(self.propagation, dist, extra_loss):
                radio.frames_lost += 1
                if trace is not None:
                    trace.emit(
                        tr.PHY_FRAME_DROP, now, channel=channel,
                        dst=radio.address, reason="loss",
                    )
                continue
            radio._deliver(frame, self.rssi_at(dist), frame_air)
