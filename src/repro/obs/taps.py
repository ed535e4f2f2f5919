"""Packet taps: pcap-style capture hooks for any traffic point.

A :class:`PacketTap` collects :class:`TapRecord` entries — timestamp,
capture point, direction, size, addresses, and a payload summary — from
whatever objects it is attached to.  Attachment points expose
``add_tap(tap)`` (L2 :class:`~repro.net.l2.Port`, switches/bridges, UDP
sockets, network stacks, and WAVNet connections all do); the generic
:func:`attach_tap` dispatches on that method so capture code does not
care what it is tapping.
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import asdict, dataclass
from typing import Optional

__all__ = ["PacketTap", "TapRecord", "attach_tap"]


@dataclass(frozen=True)
class TapRecord:
    """One captured frame/datagram/packet."""

    t: float              # sim time of capture
    point: str            # where it was captured (port/socket/conn name)
    direction: str        # "tx" | "rx" | "fwd"
    kind: str             # "eth" | "udp" | "ip" | ...
    size: int
    src: Optional[str] = None
    dst: Optional[str] = None
    info: Optional[str] = None  # payload summary (inner type name, etc.)


class PacketTap:
    """Capture buffer with an optional size cap (drop-head disabled:
    when full, later records are counted but not stored, like a
    fixed-size pcap ring that reports truncation)."""

    def __init__(self, sim, name: str = "tap", capacity: Optional[int] = None) -> None:
        self.sim = sim
        self.name = name
        self.capacity = capacity
        self.records: list[TapRecord] = []
        self.truncated = 0

    # -- capture entry points (called from the tapped objects) ----------
    def record(self, point: str, direction: str, kind: str, size: int,
               src=None, dst=None, info: Optional[str] = None,
               t: Optional[float] = None) -> None:
        """``t`` stamps a frame handed on now that reaches the capture
        point later (a switch's folded forwarding delay); default now."""
        if self.capacity is not None and len(self.records) >= self.capacity:
            self.truncated += 1
            return
        self.records.append(TapRecord(
            self.sim.now if t is None else t, point, direction, kind, int(size),
            None if src is None else str(src),
            None if dst is None else str(dst), info))

    def frame(self, point: str, direction: str, frame, t: Optional[float] = None) -> None:
        """Capture an Ethernet frame (any object with src/dst/size/payload)."""
        self.record(point, direction, "eth", frame.size, frame.src, frame.dst,
                    type(frame.payload).__name__, t)

    def packet(self, point: str, direction: str, packet) -> None:
        """Capture an IPv4 packet."""
        self.record(point, direction, "ip", packet.size, packet.src, packet.dst,
                    type(packet.payload).__name__)

    def datagram(self, point: str, direction: str, size: int,
                 src=None, dst=None, info: Optional[str] = None) -> None:
        """Capture a UDP payload / WAVNet tunnel datagram."""
        self.record(point, direction, "udp", size, src, dst, info)

    # -- inspection -----------------------------------------------------
    def __len__(self) -> int:
        return len(self.records)

    def filter(self, point: Optional[str] = None, direction: Optional[str] = None,
               kind: Optional[str] = None) -> list[TapRecord]:
        return [r for r in self.records
                if (point is None or r.point == point)
                and (direction is None or r.direction == direction)
                and (kind is None or r.kind == kind)]

    def total_bytes(self, **where) -> int:
        return sum(r.size for r in self.filter(**where))

    # -- export ---------------------------------------------------------
    def to_jsonl(self) -> str:
        return "\n".join(json.dumps(asdict(r), default=str) for r in self.records)

    def dump_jsonl(self, path) -> pathlib.Path:
        path = pathlib.Path(path)
        text = self.to_jsonl()
        path.write_text(text + "\n" if text else "")
        return path

    def __repr__(self) -> str:
        return f"PacketTap({self.name}, n={len(self.records)})"


def attach_tap(obj, tap: PacketTap) -> PacketTap:
    """Attach ``tap`` to any tappable object (duck-typed ``add_tap``)."""
    add = getattr(obj, "add_tap", None)
    if add is None:
        raise TypeError(f"{type(obj).__name__} does not support packet taps")
    add(tap)
    return tap
