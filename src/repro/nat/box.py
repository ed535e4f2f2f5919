"""The NAT gateway node.

A :class:`NatBox` is a router whose pre-/post-routing hooks rewrite
addresses, one mapping table per protocol (ports are per-protocol
namespaces). Behaviour — endpoint-independent vs per-destination
mapping, inbound filtering — is governed by :class:`NatType`.

ICMP echo is NATed on the ``ident`` field, as real NAT implementations
do, so ping works from behind the NAT.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.nat.mapping import MappingTable
from repro.nat.types import NatType, split_nat_spec
from repro.net.addresses import IPv4Address, IPv4Network, MacAddress
from repro.net.packet import (
    PROTO_ICMP,
    PROTO_TCP,
    PROTO_UDP,
    IcmpMessage,
    IPv4Packet,
    TcpSegment,
    UdpDatagram,
)
from repro.net.stack import Interface, Router
from repro.sim.engine import Simulator
from repro.sim.lifecycle import Component

__all__ = ["NatBox"]


def _tcp_ports(seg: TcpSegment, src_port: int, dst_port: int) -> TcpSegment:
    return TcpSegment(src_port, dst_port, seg.seq, seg.ack, seg.flags, seg.window,
                      seg.payload_size, seg.payload_data, seg.sack)


def _icmp_ident(msg: IcmpMessage, ident: int) -> IcmpMessage:
    return IcmpMessage(msg.kind, ident, msg.seq, msg.payload_size, msg.timestamp)


class NatBox(Router, Component):
    """NAT/firewall gateway between an inside LAN and the public Internet.

    As a lifecycle :class:`~repro.sim.lifecycle.Component` (kind
    ``nat``): ``crash`` powers the box off — every mapping table is
    flushed (bindings are RAM) and all traffic is dropped; ``restore``
    powers it back on with empty tables, so hosts behind it must re-open
    their mappings with outbound traffic. :meth:`reboot` is the common
    fast cycle (crash + immediate restore): connectivity blips, but the
    lasting damage is the mapping flush.
    """

    def __init__(
        self,
        sim: Simulator,
        name: str,
        mac_mint: Callable[[], MacAddress],
        nat_type: NatType | str = NatType.PORT_RESTRICTED,
        udp_timeout: float = 60.0,
        tcp_timeout: float = 3600.0,
        icmp_timeout: float = 30.0,
        port_alloc: Optional[str] = None,
        port_stride: int = 1,
    ) -> None:
        super().__init__(sim, name, mac_mint)
        Component.__init__(self, sim, "nat", name)
        # Combined specs ("symmetric-sequential") carry the allocation
        # policy; an explicit port_alloc= argument wins over the suffix.
        parsed, spec_alloc = split_nat_spec(nat_type)
        self.nat_type = parsed
        if self.nat_type is NatType.OPEN:
            raise ValueError("NatBox cannot model an OPEN (no-NAT) path")
        if port_alloc is None:
            port_alloc = spec_alloc
        # Per-box deterministic RNG stream: allocation order depends only
        # on the box name, never on global draw order.
        port_rng = sim.rng.stream(f"nat.ports.{name}")
        metrics = sim.metrics.scope(f"nat.{name}")
        self.metrics = metrics
        self.udp_mappings = MappingTable(self.nat_type, udp_timeout, port_rng=port_rng,
                                         metrics=metrics.scope("udp"),
                                         port_alloc=port_alloc, port_stride=port_stride)
        self.tcp_mappings = MappingTable(self.nat_type, tcp_timeout, first_port=30000,
                                         port_rng=port_rng, metrics=metrics.scope("tcp"),
                                         port_alloc=port_alloc, port_stride=port_stride)
        self.icmp_mappings = MappingTable(self.nat_type, icmp_timeout, first_port=40000,
                                          port_rng=port_rng, metrics=metrics.scope("icmp"),
                                          port_alloc=port_alloc, port_stride=port_stride)
        self.port_alloc = self.udp_mappings.port_alloc
        self.port_stride = self.udp_mappings.port_stride
        self.inside: Optional[Interface] = None
        self.outside: Optional[Interface] = None
        self.inside_network: Optional[IPv4Network] = None
        self.public_ip: Optional[IPv4Address] = None
        self.translated_out = 0
        self.translated_in = 0
        self.dropped_unsolicited = 0
        self.stack.pre_routing = self._pre_routing
        self.stack.post_routing = self._post_routing

    # -- lifecycle ---------------------------------------------------------
    def _on_crash(self) -> None:
        for table in (self.udp_mappings, self.tcp_mappings, self.icmp_mappings):
            table.flush()

    def _on_stop(self) -> None:
        pass  # graceful stop keeps tables; traffic still drops while down

    def reboot(self) -> None:
        """Power-cycle: flush all mapping tables, forwarding resumes at
        once (the blackout window is below frame resolution)."""
        self.crash()
        self.restore()

    # -- setup -------------------------------------------------------------
    def add_inside(self, ip: IPv4Address | str, network: IPv4Network | str) -> Interface:
        self.inside = self.stack.add_interface("inside", self.mac_mint())
        self.inside.configure(ip, network)
        self.inside_network = self.inside.network
        self.stack.connected_route_for(self.inside)
        return self.inside

    def add_outside(self, ip: IPv4Address | str, network: IPv4Network | str = "0.0.0.0/0") -> Interface:
        self.outside = self.stack.add_interface("outside", self.mac_mint())
        self.outside.configure(ip, network)
        self.public_ip = self.outside.ip
        self.stack.add_route("0.0.0.0/0", self.outside)
        return self.outside

    def _table_for(self, proto: int) -> Optional[MappingTable]:
        if proto == PROTO_UDP:
            return self.udp_mappings
        if proto == PROTO_TCP:
            return self.tcp_mappings
        if proto == PROTO_ICMP:
            return self.icmp_mappings
        return None

    # -- datapath hooks ------------------------------------------------------
    def _pre_routing(self, packet: IPv4Packet, iface: Interface) -> Optional[IPv4Packet]:
        """Inbound DNAT: rewrite public (ip, port) back to the inside host."""
        if not self.running:
            return None  # box is down/crashed: everything blackholes
        if iface is not self.outside or packet.dst != self.public_ip:
            return packet
        table = self._table_for(packet.proto)
        if table is None:
            return packet
        now = self.sim.now
        payload = packet.payload
        if packet.proto == PROTO_UDP:
            dgram: UdpDatagram = payload
            mapping = table.inbound(dgram.dst_port, packet.src, dgram.src_port, now)
            if mapping is None:
                self.dropped_unsolicited += 1
                return None
            self.translated_in += 1
            return packet.with_dst(mapping.internal_ip).with_payload(
                UdpDatagram(dgram.src_port, mapping.internal_port, dgram.payload))
        if packet.proto == PROTO_TCP:
            seg: TcpSegment = payload
            mapping = table.inbound(seg.dst_port, packet.src, seg.src_port, now)
            if mapping is None:
                self.dropped_unsolicited += 1
                return None
            self.translated_in += 1
            return packet.with_dst(mapping.internal_ip).with_payload(
                _tcp_ports(seg, seg.src_port, mapping.internal_port))
        if packet.proto == PROTO_ICMP:
            msg: IcmpMessage = payload
            if msg.kind == "echo-request":
                return packet  # ping to the NAT itself: answer locally
            mapping = table.inbound(msg.ident, packet.src, 0, now)
            if mapping is None:
                self.dropped_unsolicited += 1
                return None
            self.translated_in += 1
            return packet.with_dst(mapping.internal_ip).with_payload(
                _icmp_ident(msg, mapping.internal_port))
        return packet

    def _post_routing(self, packet: IPv4Packet, iface: Interface) -> Optional[IPv4Packet]:
        """Outbound SNAT: rewrite inside (ip, port) to the public endpoint."""
        if not self.running:
            return None
        if iface is not self.outside:
            return packet
        if self.inside_network is None or packet.src not in self.inside_network:
            return packet  # NAT's own traffic
        table = self._table_for(packet.proto)
        if table is None:
            return None  # unsupported protocol cannot traverse
        now = self.sim.now
        payload = packet.payload
        if packet.proto == PROTO_UDP:
            dgram: UdpDatagram = payload
            mapping = table.outbound(packet.src, dgram.src_port, packet.dst, dgram.dst_port, now)
            self.translated_out += 1
            return packet.with_src(self.public_ip).with_payload(
                UdpDatagram(mapping.external_port, dgram.dst_port, dgram.payload))
        if packet.proto == PROTO_TCP:
            seg: TcpSegment = payload
            mapping = table.outbound(packet.src, seg.src_port, packet.dst, seg.dst_port, now)
            self.translated_out += 1
            return packet.with_src(self.public_ip).with_payload(
                _tcp_ports(seg, mapping.external_port, seg.dst_port))
        if packet.proto == PROTO_ICMP:
            msg: IcmpMessage = payload
            # NAT on the ident field; destination "port" is 0.
            mapping = table.outbound(packet.src, msg.ident, packet.dst, 0, now)
            self.translated_out += 1
            return packet.with_src(self.public_ip).with_payload(
                _icmp_ident(msg, mapping.external_port))
        return packet

    def external_endpoint_for(
        self, int_ip: IPv4Address, int_port: int, dst_ip: IPv4Address, dst_port: int
    ) -> tuple[IPv4Address, int]:
        """Test/diagnostic helper: the public endpoint an outbound UDP flow
        would be seen as (what STUN discovers)."""
        mapping = self.udp_mappings.outbound(int_ip, int_port, dst_ip, dst_port, self.sim.now)
        return (self.public_ip, mapping.external_port)
