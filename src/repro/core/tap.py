"""The user-level virtual network device (tap).

A :class:`TapDevice` is an L2 port that, instead of leading to a wire,
hands every frame to the WAVNet driver (capture direction) and lets the
driver inject frames back (delivery direction). Crossing the tap costs
CPU time — the user/kernel copy that makes user-level virtual networks
slower than native — modeled as a per-frame cost plus a per-byte cost.

Each direction is a *serialized* station (the real driver is a single
``read()``/``write()`` loop per direction), so line-rate bursts are
naturally paced through the tap instead of arriving at the access queue
as one slug. These two knobs (per-frame/per-byte cost) are what Figures
6-7's "close-to-native" comparison is sensitive to.

Both directions are analytic :class:`~repro.sim.queues.FifoStation`\\ s:
a frame's copy starts when it arrives or when the previous copy ends,
and the only calendar entry per frame is its hand-off when the copy
ends. The bridge folds its forwarding delay into the capture arrival, so
a captured frame reaches the driver at ``t + forward_delay + cost`` on
an idle tap. ``queue_capacity`` bounds the frames inside each direction,
the one being copied included; frames still inside when the tap goes
down are discarded when their copy ends.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.net.l2 import Port
from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.queues import FifoStation, StationJob

__all__ = ["TapDevice"]


class TapDevice:
    """Simulated /dev/net/tun endpoint attached to a bridge."""

    takes_arrival = True  # on_frame accepts the bridge's folded arrival time

    def __init__(
        self,
        sim: Simulator,
        name: str = "tap0",
        per_frame_cost: float = 15e-6,
        per_byte_cost: float = 4e-9,
        queue_capacity: int = 1024,
    ) -> None:
        self.sim = sim
        self.name = name
        self.per_frame_cost = per_frame_cost
        self.per_byte_cost = per_byte_cost
        self.port = Port(self, name=name)
        self.capture_handler: Optional[Callable[[EthernetFrame], None]] = None
        self.frames_captured = 0
        self.frames_injected = 0
        self.drops = 0
        self.up = True
        self._reader = FifoStation(sim, capacity=queue_capacity)
        self._writer = FifoStation(sim, capacity=queue_capacity)

    def _enqueue(self, station: FifoStation, job: "_Captured | _Injected",
                 arrival: Optional[float]) -> None:
        if arrival is None:
            arrival = self.sim.now
        if not station.offer(job, arrival,
                             self.per_frame_cost + self.per_byte_cost * job.frame.size):
            self.drops += 1

    # Bridge -> tap (capture: frame leaves the host for the tunnel).
    def on_frame(self, frame: EthernetFrame, port: Port,
                 arrival: Optional[float] = None) -> None:
        if not self.up or self.capture_handler is None:
            return
        self.frames_captured += 1
        self._enqueue(self._reader, _Captured(self, frame), arrival)

    # Tunnel -> tap (inject: frame enters the host's bridge).
    def inject(self, frame: EthernetFrame) -> None:
        if not self.up:
            return
        self.frames_injected += 1
        self._enqueue(self._writer, _Injected(self, frame), None)


class _Captured(StationJob):
    """Read loop hand-off: the copied frame reaches the driver."""

    __slots__ = ("tap", "frame")

    def __init__(self, tap: TapDevice, frame: EthernetFrame) -> None:
        self.tap = tap
        self.frame = frame

    def __call__(self) -> None:
        tap = self.tap
        if tap.up and tap.capture_handler is not None:
            tap.capture_handler(self.frame)


class _Injected(StationJob):
    """Write loop hand-off: the copied frame enters the bridge."""

    __slots__ = ("tap", "frame")

    def __init__(self, tap: TapDevice, frame: EthernetFrame) -> None:
        self.tap = tap
        self.frame = frame

    def __call__(self) -> None:
        if self.tap.up:
            self.tap.port.transmit(self.frame)
