"""Wire formats with byte-accurate size accounting.

Packets are lightweight value objects. Payload *contents* are opaque
(simulation models timing, not data), but payload *sizes* are exact so
that serialization delay, header overhead, and throughput accounting all
match the real protocols:

* Ethernet II header: 14 B (+ 4 B FCS counted in ``ETHERNET_OVERHEAD``)
* IPv4 header: 20 B
* UDP header: 8 B
* TCP header: 20 B
* ICMP echo header: 8 B

Every object exposes ``.size`` — its on-wire byte count including the
sizes of everything it encapsulates. Packets are immutable, so the size
is computed once, when the object is built, and stored as a plain
attribute (not part of equality, hashing or ``repr``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.net.addresses import IPv4Address, MacAddress

__all__ = [
    "ArpPacket",
    "ETHERNET_HEADER",
    "EthernetFrame",
    "ICMP_HEADER",
    "IPV4_HEADER",
    "IcmpMessage",
    "IPv4Packet",
    "Payload",
    "TCP_HEADER",
    "TcpSegment",
    "UDP_HEADER",
    "UdpDatagram",
]

ETHERNET_HEADER = 14
ETHERNET_FCS = 4
IPV4_HEADER = 20
UDP_HEADER = 8
TCP_HEADER = 20
ICMP_HEADER = 8
ARP_SIZE = 28

# Ethertypes / protocol numbers we use.
ETHERTYPE_IPV4 = 0x0800
ETHERTYPE_ARP = 0x0806
PROTO_ICMP = 1
PROTO_TCP = 6
PROTO_UDP = 17


@dataclass(frozen=True)
class Payload:
    """Opaque application payload: a byte count plus optional metadata.

    ``data`` is never serialized; it carries simulation-level objects
    (e.g. an HTTP request descriptor or a WAVNet-encapsulated frame).
    """

    size: int
    data: Any = None
    kind: str = ""

    def __post_init__(self) -> None:
        if self.size < 0:
            raise ValueError(f"negative payload size {self.size}")


_set = object.__setattr__  # frozen dataclasses: set the cached size once


def _size_field():
    return field(init=False, repr=False, compare=False)


@dataclass(frozen=True)
class IcmpMessage:
    """ICMP echo request/reply (``kind`` is 'echo-request'/'echo-reply')."""

    kind: str
    ident: int
    seq: int
    payload_size: int = 56
    timestamp: float = 0.0  # sender's clock, echoed back for RTT
    size: int = _size_field()

    def __post_init__(self) -> None:
        _set(self, "size", ICMP_HEADER + self.payload_size)


@dataclass(frozen=True)
class UdpDatagram:
    src_port: int
    dst_port: int
    payload: Payload
    size: int = _size_field()

    def __post_init__(self) -> None:
        _set(self, "size", UDP_HEADER + self.payload.size)


# TCP flag bits.
SYN = 0x02
ACK = 0x10
FIN = 0x01
RST = 0x04


@dataclass(frozen=True)
class TcpSegment:
    src_port: int
    dst_port: int
    seq: int
    ack: int
    flags: int
    window: int
    payload_size: int = 0
    payload_data: Any = None
    # SACK blocks: up to 4 (start, end) byte ranges the receiver holds
    # above the cumulative ACK (RFC 2018; on by default as in 2011 Linux).
    sack: tuple = ()
    size: int = _size_field()

    def __post_init__(self) -> None:
        _set(self, "size", TCP_HEADER + self.payload_size)

    @property
    def syn(self) -> bool:
        return bool(self.flags & SYN)

    @property
    def ack_flag(self) -> bool:
        return bool(self.flags & ACK)

    @property
    def fin(self) -> bool:
        return bool(self.flags & FIN)

    @property
    def rst(self) -> bool:
        return bool(self.flags & RST)

    def describe(self) -> str:
        names = []
        if self.syn:
            names.append("SYN")
        if self.ack_flag:
            names.append("ACK")
        if self.fin:
            names.append("FIN")
        if self.rst:
            names.append("RST")
        return f"TCP[{'|'.join(names) or 'DATA'} seq={self.seq} ack={self.ack} len={self.payload_size}]"


@dataclass(frozen=True)
class IPv4Packet:
    src: IPv4Address
    dst: IPv4Address
    proto: int
    payload: Any  # UdpDatagram | TcpSegment | IcmpMessage
    ttl: int = 64
    size: int = _size_field()

    def __post_init__(self) -> None:
        _set(self, "size", IPV4_HEADER + self.payload.size)

    def decremented(self) -> "IPv4Packet":
        return IPv4Packet(self.src, self.dst, self.proto, self.payload, self.ttl - 1)

    def with_src(self, src: IPv4Address) -> "IPv4Packet":
        return IPv4Packet(src, self.dst, self.proto, self.payload, self.ttl)

    def with_dst(self, dst: IPv4Address) -> "IPv4Packet":
        return IPv4Packet(self.src, dst, self.proto, self.payload, self.ttl)

    def with_payload(self, payload: Any) -> "IPv4Packet":
        return IPv4Packet(self.src, self.dst, self.proto, payload, self.ttl)


@dataclass(frozen=True)
class ArpPacket:
    """ARP request/reply ('request'/'reply'); gratuitous ARP is a reply
    whose sender == target (the post-migration announcement)."""

    op: str
    sender_mac: MacAddress
    sender_ip: IPv4Address
    target_mac: Optional[MacAddress]
    target_ip: IPv4Address
    size = ARP_SIZE  # class constant, not a field

    @property
    def is_gratuitous(self) -> bool:
        return self.op == "reply" and self.sender_ip == self.target_ip


@dataclass(frozen=True)
class EthernetFrame:
    src: MacAddress
    dst: MacAddress
    ethertype: int
    payload: Any  # IPv4Packet | ArpPacket
    vlan: Optional[int] = None
    size: int = _size_field()

    def __post_init__(self) -> None:
        # Minimum Ethernet payload is 46 B (frames are padded on the wire);
        # a frame without payload is an empty, padded one.
        body = 0 if self.payload is None else self.payload.size
        _set(self, "size", ETHERNET_HEADER + ETHERNET_FCS + (body if body > 46 else 46))


def ipv4(src: IPv4Address, dst: IPv4Address, payload: Any, ttl: int = 64) -> IPv4Packet:
    """Build an IPv4 packet inferring the protocol number from the payload."""
    if isinstance(payload, UdpDatagram):
        proto = PROTO_UDP
    elif isinstance(payload, TcpSegment):
        proto = PROTO_TCP
    elif isinstance(payload, IcmpMessage):
        proto = PROTO_ICMP
    else:
        raise TypeError(f"cannot infer protocol for {type(payload).__name__}")
    return IPv4Packet(src, dst, proto, payload, ttl)


def frame_for(packet: Any, src: MacAddress, dst: MacAddress) -> EthernetFrame:
    """Wrap an L3 packet in an Ethernet frame with the right ethertype."""
    if isinstance(packet, IPv4Packet):
        etype = ETHERTYPE_IPV4
    elif isinstance(packet, ArpPacket):
        etype = ETHERTYPE_ARP
    else:
        raise TypeError(f"cannot frame {type(packet).__name__}")
    return EthernetFrame(src, dst, etype, packet)
