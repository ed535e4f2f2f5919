"""Layer-2 plumbing: ports, links, learning switches, software bridges.

The medium model:

* :class:`Port` — attachment point owned by a device (interface, switch,
  bridge, tap). ``transmit`` pushes a frame into whatever medium the port
  is connected to; ``deliver`` hands an arriving frame to the owner.
* :class:`Link` — full-duplex point-to-point wire with propagation delay,
  serialization at a configured bandwidth, a drop-tail queue, and optional
  random loss. This is also where ``tc``-style traffic shaping lives
  (shaping a link is just configuring its bandwidth/queue).
* :func:`patch` — a zero-cost back-to-back connection (VM vif to bridge
  port, tap to bridge port).
* :class:`Switch` — MAC-learning Ethernet switch; :class:`Bridge` is the
  in-host software variant (Linux ``brctl`` equivalent) with a per-frame
  CPU cost.

Every hop costs one calendar entry. Each link direction is an analytic
:class:`~repro.sim.queues.FifoStation` that schedules only the frame's
delivery. A switch does not schedule its forwarding delay: it hands the
next medium the frame together with its arrival time ``now +
forward_delay``. A link or a tap queues the frame for that time; a patch
to any other device delivers it then through one calendar entry.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Optional, Protocol

from repro.net.addresses import MacAddress
from repro.net.packet import EthernetFrame
from repro.sim.engine import Simulator
from repro.sim.lifecycle import Component
from repro.sim.queues import FifoStation, StationJob

__all__ = ["Bridge", "Link", "Port", "Switch", "patch"]


class FrameHandler(Protocol):  # pragma: no cover - typing helper
    def on_frame(self, frame: EthernetFrame, port: "Port") -> None: ...


class Port:
    """Device attachment point. A port is connected to at most one medium.

    A medium is called as ``medium(frame)`` for a frame entering it now,
    and as ``medium(frame, arrival)`` when a forwarding device hands it a
    frame that reaches it at the later time ``arrival``; links and patch
    cables take both.
    """

    __slots__ = ("owner", "name", "_medium", "up", "_taps", "_timed", "_sim")

    def __init__(self, owner: FrameHandler, name: str = "") -> None:
        self.owner = owner
        self.name = name
        self._medium: Optional[Callable[..., None]] = None
        self.up = True
        self._taps: Optional[list] = None  # lazily created; hot path stays a None check
        # An owner that queues frames itself (a FIFO station, e.g. the
        # tap) takes a future arrival: on_frame(frame, port, arrival).
        self._timed = getattr(owner, "takes_arrival", False)
        self._sim: Optional[Simulator] = None  # set by patch()

    @property
    def connected(self) -> bool:
        return self._medium is not None

    def connect(self, medium: Callable[..., None]) -> None:
        if self._medium is not None:
            raise RuntimeError(f"port {self.name!r} already connected")
        self._medium = medium

    def disconnect(self) -> None:
        self._medium = None

    def add_tap(self, tap) -> None:
        """Attach a :class:`~repro.obs.taps.PacketTap` to both directions."""
        if self._taps is None:
            self._taps = []
        self._taps.append(tap)

    def remove_tap(self, tap) -> None:
        if self._taps is not None and tap in self._taps:
            self._taps.remove(tap)

    def transmit(self, frame: EthernetFrame, arrival: Optional[float] = None) -> None:
        """Push a frame out of the device into the medium (if any);
        ``arrival`` is when it gets there (``None``: now)."""
        if self._medium is not None and self.up:
            if self._taps is not None:
                for tap in self._taps:
                    tap.frame(self.name, "tx", frame, arrival)
            if arrival is None:
                self._medium(frame)
            else:
                self._medium(frame, arrival)

    def receive(self, frame: EthernetFrame, arrival: Optional[float] = None) -> None:
        """Patch-cable end: hand the frame to this port now, or at
        ``arrival`` — queued by a timed owner itself, otherwise through
        one calendar entry."""
        if arrival is None or self._timed:
            self.deliver(frame, arrival)
        else:
            self._sim.call_at(arrival, _Delivery(self, frame))

    def deliver(self, frame: EthernetFrame, arrival: Optional[float] = None) -> None:
        """Hand an arriving frame to the owning device."""
        if self.up:
            if self._taps is not None:
                for tap in self._taps:
                    tap.frame(self.name, "rx", frame, arrival)
            if arrival is None:
                self.owner.on_frame(frame, self)
            else:
                self.owner.on_frame(frame, self, arrival)


def patch(a: Port, b: Port) -> None:
    """Connect two ports back-to-back with zero delay (virtual patch cable)."""
    a._sim = b._sim = getattr(a.owner, "sim", None) or getattr(b.owner, "sim", None)
    a.connect(b.receive)
    b.connect(a.receive)


class _Delivery:
    """A frame reaching a port at a later time: one fast-lane entry."""

    __slots__ = ("port", "frame")

    def __init__(self, port: Port, frame: EthernetFrame) -> None:
        self.port = port
        self.frame = frame

    def __call__(self) -> None:
        self.port.deliver(self.frame)


class _Pipe(FifoStation):
    """One direction of a link: drop-tail queue -> serializer ->
    propagation, as one analytic FIFO station.

    A frame's serialization starts at ``max(arrival, busy_until)`` and
    lasts ``size * 8 / bandwidth_bps`` (zero when unshaped); the pipe
    schedules only its delivery, at finish + ``latency``. Timing is that
    of a transmitter serializing strictly in order:

    * **Loss** is drawn at the delivery entry from the link's stream
      (shared by both directions, which share one latency, so draws keep
      the order in which serialization ended), with the loss probability
      in effect when serialization ended.
    * **Drop-tail** — ``queue_capacity`` counts frames waiting behind the
      one on the serializer, at the frame's arrival.
    * **Reshaping** — :meth:`reshape` moves frames not yet in service to
      the new rate; the frame in service finishes at the old one. A new
      ``latency`` applies to every frame whose serialization has not
      ended.
    * **Admin-down** drops new arrivals, including frames a switch has
      already handed over for a later arrival; queued frames drain.
    * ``bytes_sent`` / ``frames_sent`` count frames whose serialization
      has ended (lost ones included).
    """

    def __init__(
        self,
        sim: Simulator,
        dst: Port,
        latency: float,
        bandwidth_bps: Optional[float],
        queue_capacity: int,
        loss: float,
        loss_rng,
        name: str,
    ) -> None:
        # One slot more than the queue: the frame on the serializer.
        super().__init__(sim, capacity=queue_capacity + 1, latency=latency)
        self.dst = dst
        self.bandwidth_bps = bandwidth_bps
        self.loss = loss
        self._loss_rng = loss_rng
        self.name = name
        self.up = True  # admin state, mirrored from the owning Link
        self.drops = 0  # drop-tail overflows
        self.frames_lost = 0
        self.frames_dropped_down = 0  # offered while admin-down
        self._bytes_in = 0  # admitted, serialized or not
        self._frames_in = 0
        self._undrawn: deque[_Transit] = deque()  # lossy frames not yet drawn, FIFO

    def send(self, frame: EthernetFrame, arrival: Optional[float] = None) -> None:
        if not self.up:
            self.frames_dropped_down += 1
            return
        if arrival is None:
            arrival = self.sim.now
        size = frame.size
        bw = self.bandwidth_bps
        loss = self.loss
        job = _Transit(self, frame, loss)
        if not self.offer(job, arrival, 0.0 if bw is None else size * 8.0 / bw):
            self.drops += 1
            return
        self._bytes_in += size
        self._frames_in += 1
        if loss > 0.0:
            self._undrawn.append(job)

    def _unserialized(self) -> list:
        """Frames whose serialization has not ended (in service, waiting,
        or handed over for a later arrival)."""
        now = self.sim.now
        return [job for job in self.jobs if job.finish > now]

    @property
    def bytes_sent(self) -> int:
        # Read on every fluid-plane solve: skip the scan when every
        # admitted frame has been serialized.
        jobs = self.jobs
        if not jobs or jobs[-1].finish <= self.sim.now:
            return self._bytes_in
        return self._bytes_in - sum(job.frame.size for job in self._unserialized())

    @property
    def frames_sent(self) -> int:
        return self._frames_in - len(self._unserialized())

    def reshape(self, bandwidth_bps: Optional[float]) -> None:
        self.bandwidth_bps = bandwidth_bps
        if bandwidth_bps is None:
            self.retime(self.latency, lambda job: 0.0)
        else:
            self.retime(self.latency, lambda job: job.frame.size * 8.0 / bandwidth_bps)

    def set_loss(self, loss: float) -> None:
        """Frames whose serialization has not ended take the new loss."""
        self.loss = loss
        now = self.sim.now
        undrawn = [job for job in self._undrawn if job.finish <= now]
        for job in self._unserialized():
            job.loss = loss
            if loss > 0.0:
                undrawn.append(job)
        self._undrawn = deque(undrawn)

    def admin_down(self) -> None:
        self.up = False
        gone = self.withdraw_after(self.sim.now)
        if gone:
            ids = {id(job) for job in gone}
            undrawn = self._undrawn
            while undrawn and id(undrawn[-1]) in ids:
                undrawn.pop()
        self.frames_dropped_down += len(gone)
        self._frames_in -= len(gone)
        self._bytes_in -= sum(job.frame.size for job in gone)

    def draw_on_the_wire(self) -> list:
        """Take the lossy frames whose serialization has ended but that
        are not delivered yet off the draw queue (in serialization-end
        order), for the link to draw now."""
        now = self.sim.now
        undrawn = self._undrawn
        flying = []
        while undrawn and undrawn[0].finish <= now:
            flying.append(undrawn.popleft())
        return flying


class _Transit(StationJob):
    """A frame crossing one link direction; runs at its delivery time."""

    __slots__ = ("pipe", "frame", "loss")

    def __init__(self, pipe: _Pipe, frame: EthernetFrame, loss: float) -> None:
        self.pipe = pipe
        self.frame = frame
        self.loss = loss

    def __call__(self) -> None:
        pipe = self.pipe
        loss = self.loss
        if loss > 0.0:
            pipe._undrawn.popleft()  # this frame: the pipe delivers in FIFO order
            if pipe._loss_rng.random() < loss:
                pipe.frames_lost += 1
                return
        elif loss < 0.0:  # drawn early (see Link.set_latency): lost
            pipe.frames_lost += 1
            return
        pipe.dst.deliver(self.frame)


class Link(Component):
    """Full-duplex point-to-point link between two ports.

    ``bandwidth_bps=None`` means no serialization delay (used for the WAN
    cloud's internal pipes where the bottleneck is modeled at access
    links). ``loss`` is an i.i.d. per-frame drop probability.

    A link is a lifecycle :class:`~repro.sim.lifecycle.Component`:
    :meth:`admin_down` / :meth:`admin_up` (aliases of ``stop`` /
    ``restore``) model ``ip link set down`` — new frames are dropped
    and counted, frames already serialized or queued drain normally.
    """

    def __init__(
        self,
        sim: Simulator,
        a: Port,
        b: Port,
        latency: float = 0.0,
        bandwidth_bps: Optional[float] = None,
        queue_capacity: int = 128,
        loss: float = 0.0,
        name: str = "link",
    ) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0,1), got {loss}")
        self.name = name
        rng = sim.rng.stream(f"link.loss.{name}")
        self.ab = _Pipe(sim, b, latency, bandwidth_bps, queue_capacity, loss, rng, f"{name}.ab")
        self.ba = _Pipe(sim, a, latency, bandwidth_bps, queue_capacity, loss, rng, f"{name}.ba")
        a.connect(self.ab.send)
        b.connect(self.ba.send)
        self._watchers: list = []
        super().__init__(sim, "link", name)

    def add_watcher(self, fn) -> None:
        """Subscribe ``fn(link)`` to capacity-affecting changes (admin
        up/down, reshaping, loss changes). Used by the fluid plane to
        trigger re-solves; keep callbacks cheap and non-reentrant."""
        self._watchers.append(fn)

    def _notify_watchers(self) -> None:
        for fn in self._watchers:
            fn(self)

    @property
    def up(self) -> bool:
        return self.ab.up

    def admin_down(self) -> None:
        self.stop()

    def admin_up(self) -> None:
        self.restore()

    def _on_stop(self) -> None:
        self.ab.admin_down()
        self.ba.admin_down()
        self._notify_watchers()

    def _on_restore(self) -> None:
        self.ab.up = self.ba.up = True
        self._notify_watchers()

    def set_bandwidth(self, bandwidth_bps: Optional[float]) -> None:
        """``tc``-style reshaping of both directions: frames not yet in
        service move to the new rate."""
        self.ab.reshape(bandwidth_bps)
        self.ba.reshape(bandwidth_bps)
        self._notify_watchers()

    def set_latency(self, latency: float) -> None:
        """New propagation delay for every frame whose serialization has
        not ended; frames already on the wire keep the old one."""
        if latency < 0:
            raise ValueError(f"negative latency {latency}")
        # Frames on the wire keep the old latency, so after the change
        # delivery order need not be serialization-end order any more.
        # Their loss is drawn now, in that order, ahead of every frame
        # still to be serialized: the link's draw sequence is unchanged.
        flying = self.ab.draw_on_the_wire() + self.ba.draw_on_the_wire()
        flying.sort(key=lambda job: job.finish)
        rng = self.ab._loss_rng
        for job in flying:
            job.loss = -1.0 if rng.random() < job.loss else 0.0
        self.ab.retime(latency)
        self.ba.retime(latency)
        self._notify_watchers()

    def set_loss(self, loss: float) -> None:
        """Reconfigure the i.i.d. per-frame drop probability mid-run
        (loss bursts); draws keep coming from the link's named stream."""
        if not 0.0 <= loss < 1.0:
            raise ValueError(f"loss must be in [0,1), got {loss}")
        self.ab.set_loss(loss)
        self.ba.set_loss(loss)
        self._notify_watchers()

    @property
    def frames_dropped_down(self) -> int:
        return self.ab.frames_dropped_down + self.ba.frames_dropped_down

    @property
    def total_bytes(self) -> int:
        return self.ab.bytes_sent + self.ba.bytes_sent


class Switch:
    """MAC-learning Ethernet switch.

    Frames to learned unicast MACs go out one port; broadcast and unknown
    destinations flood all other ports. ``forward_delay`` models the
    per-frame switching cost.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str = "switch",
        forward_delay: float = 5e-6,
        mac_age_limit: float = 300.0,
    ) -> None:
        self.sim = sim
        self.name = name
        self.forward_delay = forward_delay
        self.mac_age_limit = mac_age_limit
        self.ports: list[Port] = []
        self.mac_table: dict[MacAddress, tuple[Port, float]] = {}
        self.frames_forwarded = 0
        self.frames_flooded = 0
        self._taps: Optional[list] = None

    def add_tap(self, tap) -> None:
        """Attach a :class:`~repro.obs.taps.PacketTap`: captures every
        frame entering the switch, before the forwarding decision."""
        if self._taps is None:
            self._taps = []
        self._taps.append(tap)

    def new_port(self, name: str = "") -> Port:
        port = Port(self, name or f"{self.name}.p{len(self.ports)}")
        self.ports.append(port)
        return port

    def remove_port(self, port: Port) -> None:
        self.ports.remove(port)
        for mac, (p, _t) in list(self.mac_table.items()):
            if p is port:
                del self.mac_table[mac]

    def lookup(self, mac: MacAddress) -> Optional[Port]:
        entry = self.mac_table.get(mac)
        if entry is None:
            return None
        port, when = entry
        if self.sim.now - when > self.mac_age_limit:
            del self.mac_table[mac]
            return None
        return port

    def on_frame(self, frame: EthernetFrame, in_port: Port) -> None:
        if self._taps is not None:
            for tap in self._taps:
                tap.frame(f"{self.name}<{in_port.name}", "fwd", frame)
        # Learn the sender's location (moves on migration are picked up
        # here: a gratuitous ARP from a new port rewrites the entry).
        self.mac_table[frame.src] = (in_port, self.sim.now)
        out = None if frame.dst.is_broadcast else self.lookup(frame.dst)
        if out is not None and out is not in_port:
            self.frames_forwarded += 1
            self._emit(out, frame)
        elif out is None:
            self.frames_flooded += 1
            for port in self.ports:
                if port is not in_port:
                    self._emit(port, frame)
        # out is in_port: destination is on the segment it came from; drop.

    def _emit(self, port: Port, frame: EthernetFrame) -> None:
        # The forwarding delay rides on the frame as its arrival time at
        # the next medium; it never costs a calendar entry of its own.
        if self.forward_delay > 0:
            port.transmit(frame, self.sim.now + self.forward_delay)
        else:
            port.transmit(frame)


class Bridge(Switch):
    """In-host software bridge (the Xen/``brctl`` bridge of Fig 5).

    Semantically a switch; the default per-frame cost is higher because
    frames cross the host CPU.
    """

    def __init__(self, sim: Simulator, name: str = "br0", forward_delay: float = 15e-6) -> None:
        super().__init__(sim, name=name, forward_delay=forward_delay)
