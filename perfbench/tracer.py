"""The traced run: a per-layer ledger, hooked onto the program's classes.

:class:`Tracer` wraps ``Simulator.schedule`` so that every fired
callback runs inside a ``<layer>.event`` span, and wraps the layers'
entry points (PHY transmit and delivery, the AP receive handler,
TCP/DHCP/shaper calls, the driver receive path, mobility ``position``)
in spans of their own. Self times come from
:class:`~perfbench.ledger.Ledger`. Every replaced class attribute is
restored when the context exits.

Layers are the ``repro`` packages that do simulated work. ``core``
(the Spider policies the drivers run) counts as ``drivers``; anything
else (experiment code, builtins) is ``other``. An event's layer is the
package of the callable passed to ``Simulator.schedule``; for the
engine's own trampolines (a process resume, a timer firing) it is the
package of the code they resume, so ``sim.events`` can be the engine's
total and the other layers' events add up to it exactly.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from perfbench.clock import Patches
from perfbench.ledger import Ledger
from repro.drivers.base import BaseDriver, VirtualInterface
from repro.mac.ap import AccessPoint
from repro.mac.association import AssociationMachine
from repro.net.backhaul import ApRouter
from repro.net.dhcp import DhcpClient, DhcpServer
from repro.net.shaper import TokenBucketShaper
from repro.net.tcp import TcpReceiver, TcpSender
from repro.obs.metrics import MetricsRegistry
from repro.obs.spans import current_profiler, install_profiler
from repro.phy.radio import Medium, Radio
from repro.sim import engine
from repro.sim.engine import EventHandle, Process, Simulator
from repro.sim.timers import Timer
from repro.world import traces as _traces  # noqa: F401  (defines TraceMobility)
from repro.world.mobility import MobilityModel

#: Layers an event can belong to besides the engine itself.
EVENT_LAYERS = ("world", "phy", "mac", "net", "drivers", "scenario", "other")

_PACKAGE_LAYER = {
    "world": "world",
    "phy": "phy",
    "mac": "mac",
    "net": "net",
    "drivers": "drivers",
    "core": "drivers",
    "scenario": "scenario",
}

#: (class, method, span name). The span name's first component is the
#: layer its self time is charged to.
ENTRY_POINTS: Tuple[Tuple[type, str, str], ...] = (
    (Simulator, "run", "sim.loop"),
    (Radio, "transmit", "phy.transmit"),
    (Medium, "broadcast", "phy.broadcast"),
    (Medium, "_deliver_broadcast", "phy.deliver_broadcast"),
    (Medium, "_deliver_unicast", "phy.deliver_unicast"),
    (AccessPoint, "_on_frame", "mac.ap_rx"),
    (AssociationMachine, "start", "mac.assoc_start"),
    (AssociationMachine, "handle_frame", "mac.assoc_rx"),
    (TcpSender, "_transmit", "net.tcp_transmit"),
    (TcpSender, "on_ack", "net.tcp_ack"),
    (TcpReceiver, "on_segment", "net.tcp_rx"),
    (DhcpClient, "start", "net.dhcp_start"),
    (DhcpClient, "_fail", "net.dhcp_fail"),
    (DhcpClient, "handle", "net.dhcp_client_rx"),
    (DhcpServer, "handle", "net.dhcp_server_rx"),
    (TokenBucketShaper, "enqueue", "net.shaper_enqueue"),
    (ApRouter, "_on_uplink", "net.router_up"),
    (ApRouter, "send_down", "net.router_down"),
    (BaseDriver, "_on_frame", "drivers.rx"),
    (BaseDriver, "join", "drivers.join"),
)


def _module_layer(module: Optional[str]) -> str:
    parts = (module or "").split(".")
    if len(parts) >= 2 and parts[0] == "repro":
        return _PACKAGE_LAYER.get(parts[1], "other")
    return "other"


def _call(callback: Callable[..., Any], *args: Any) -> Any:
    return callback(*args)


class Tracer:
    """The traced run: installs the hooks, then reports per-layer metrics.

    Use as a context manager around exactly one workload pass; the
    wall time of the block is the ledger's root span, so the root's
    self time is the time no layer span covered (``other.self_s``).
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.ledger = Ledger(clock)
        self.registry = MetricsRegistry()
        self.simulators: List[Simulator] = []
        self.radios: List[Radio] = []
        self.cancels = 0
        self.assoc_failures = 0
        self._patches = Patches()
        self._layers: Dict[Any, str] = {}

    # -- attribution ------------------------------------------------------

    def owner_layer(self, callback: Callable[..., Any]) -> str:
        """The layer whose code a scheduled callback runs."""
        func = getattr(callback, "__func__", callback)
        if func is _PROCESS_STEP or func is _PROCESS_ON_EVENT:
            frame = callback.__self__.generator.gi_frame
            return _module_layer(frame.f_globals.get("__name__")) if frame else "other"
        if func is _TIMER_FIRE:
            return self.owner_layer(callback.__self__._callback)
        func = getattr(func, "__wrapped__", func)
        # Keyed by code object: closures scheduled per packet are new
        # function objects each time, but share their code.
        code = getattr(func, "__code__", None)
        if code is None:
            return _module_layer(getattr(func, "__module__", None))
        layer = self._layers.get(code)
        if layer is None:
            layer = self._layers[code] = _module_layer(func.__module__)
        return layer

    # -- install / restore --------------------------------------------------

    def __enter__(self) -> "Tracer":
        if current_profiler() is not None:
            raise RuntimeError("an ambient span profiler is already installed")
        try:
            self._install()
        except BaseException:
            self._patches.restore()
            raise
        # The ledger stands in as the ambient span profiler, which is
        # how ``scenario.build`` reports its own span (and AP count).
        install_profiler(self.ledger)  # type: ignore[arg-type]
        engine.set_default_observability(metrics=self.registry)
        self.ledger.begin()
        return self

    def __exit__(self, *exc: Any) -> None:
        self.ledger.end("other")
        engine.set_default_observability()
        install_profiler(None)
        self._patches.restore()

    def _install(self) -> None:
        ledger = self.ledger
        patches = self._patches
        fires = {layer: ledger.wrap(_call, f"{layer}.event") for layer in EVENT_LAYERS}
        owner_layer = self.owner_layer
        timed_schedule = ledger.wrap(Simulator.schedule, "sim.schedule")

        def schedule(sim: Simulator, delay: float, callback: Callable[..., Any], *args: Any):
            return timed_schedule(sim, delay, fires[owner_layer(callback)], callback, *args)

        original_cancel = EventHandle.cancel

        def cancel(handle: EventHandle) -> None:
            if not handle.cancelled:
                self.cancels += 1
            original_cancel(handle)

        original_result = VirtualInterface._on_assoc_result

        def on_assoc_result(interface: Any, machine: Any, success: bool) -> None:
            if not success:
                self.assoc_failures += 1
            original_result(interface, machine, success)

        patches.set(Simulator, "schedule", schedule)
        patches.set(EventHandle, "cancel", cancel)
        patches.set(VirtualInterface, "_on_assoc_result", on_assoc_result)
        patches.set(Simulator, "__init__", _collecting(Simulator.__init__, self.simulators))
        patches.set(Radio, "__init__", _collecting(Radio.__init__, self.radios))
        for owner, method, name in ENTRY_POINTS:
            patches.set(owner, method, ledger.wrap(owner.__dict__[method], name))
        for cls in _mobility_classes():
            patches.set(cls, "position", ledger.wrap(cls.__dict__["position"], "world.position"))

    # -- results ------------------------------------------------------------

    def events_executed(self) -> int:
        return sum(sim.events_executed for sim in self.simulators)

    def layer_events(self) -> Dict[str, int]:
        return {layer: self.ledger.calls(f"{layer}.event") for layer in EVENT_LAYERS}

    def metrics(self) -> Dict[str, float]:
        """Every per-layer metric of the pass (see ``perfbench/README.md``)."""
        ledger = self.ledger
        snapshot = self.registry.snapshot()

        def counter(name: str) -> int:
            return int(snapshot.get(name, 0))

        events = self.layer_events()
        scheduled = ledger.calls("sim.schedule")
        rx_total = sum(radio.frames_received for radio in self.radios)
        rx_client = sum(
            radio.frames_received
            for radio in self.radios
            if not isinstance(getattr(radio.on_receive, "__self__", None), AccessPoint)
        )
        assoc_attempts = ledger.calls("mac.assoc_start")
        dhcp_attempts = ledger.calls("net.dhcp_start")
        joins = counter("driver.join_attempts")
        out: Dict[str, float] = {
            "sim.events": self.events_executed(),
            "sim.scheduled": scheduled,
            "sim.cancelled_share": _share(self.cancels, scheduled),
            "sim.schedule_self_s": ledger.self_s("sim.schedule"),
            "sim.loop_self_s": ledger.self_s("sim.loop"),
            "world.position_calls": ledger.calls("world.position"),
            "world.position_self_s": ledger.self_s("world.position"),
            "phy.transmits": ledger.calls("phy.transmit"),
            "phy.frames_received": rx_total,
            "phy.frames_lost": sum(radio.frames_lost for radio in self.radios),
            "phy.client_rx_share": _share(rx_client, rx_total),
            "phy.broadcast_self_s": ledger.self_s("phy.transmit", "phy.broadcast"),
            "phy.deliver_broadcast_self_s": ledger.self_s("phy.deliver_broadcast"),
            "phy.deliver_unicast_self_s": ledger.self_s("phy.deliver_unicast"),
            "mac.rx_frames": ledger.calls("mac.ap_rx"),
            "mac.self_s": ledger.self_s_with_prefix("mac."),
            "mac.assoc_attempts": assoc_attempts,
            "mac.assoc_failed_share": _share(self.assoc_failures, assoc_attempts),
            "mac.psm_drops": counter("ap.psm_drops"),
            "net.self_s": ledger.self_s_with_prefix("net."),
            "net.tcp_segments": ledger.calls("net.tcp_transmit"),
            "net.tcp_acks": ledger.calls("net.tcp_ack"),
            "net.tcp_retransmits": counter("tcp.retransmissions_total"),
            "net.tcp_rtos": counter("tcp.rtos_total"),
            "net.dhcp_attempts": dhcp_attempts,
            "net.dhcp_failed_share": _share(ledger.calls("net.dhcp_fail"), dhcp_attempts),
            "net.shaper_enqueues": ledger.calls("net.shaper_enqueue"),
            "drivers.self_s": ledger.self_s_with_prefix("drivers."),
            "drivers.rx_frames": ledger.calls("drivers.rx"),
            "drivers.joins": joins,
            "drivers.join_success_share": _share(counter("driver.join_successes"), joins),
            "drivers.switches": counter("sched.switches_total"),
            "scenario.build_s": ledger.total_s("scenario.build"),
            "scenario.aps": ledger.fields.get("scenario.build", {}).get("aps", 0),
            "other.self_s": ledger.self_s_with_prefix("other"),
        }
        for layer, count in events.items():
            out[f"{layer}.events"] = count
        return out


_PROCESS_STEP = Process.__dict__["_step"]
_PROCESS_ON_EVENT = Process.__dict__["_on_event"]
_TIMER_FIRE = Timer.__dict__["_fire"]


def _collecting(init: Callable[..., None], bucket: List[Any]) -> Callable[..., None]:
    def __init__(obj: Any, *args: Any, **kwargs: Any) -> None:
        init(obj, *args, **kwargs)
        bucket.append(obj)

    return __init__


def _mobility_classes() -> List[type]:
    """Every mobility model class that defines its own ``position``."""
    found: List[type] = []
    pending = list(MobilityModel.__subclasses__())
    while pending:
        cls = pending.pop()
        pending.extend(cls.__subclasses__())
        if "position" in cls.__dict__:
            found.append(cls)
    return sorted(found, key=lambda cls: cls.__qualname__)


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0
