"""Tests for links, switches, bridges, and frame size accounting."""

import pytest

from repro.net.addresses import BROADCAST_MAC, IPv4Address, MacAddress
from repro.net.l2 import Link, Port, Switch, patch
from repro.net.packet import (
    ArpPacket,
    EthernetFrame,
    IcmpMessage,
    Payload,
    TcpSegment,
    UdpDatagram,
    ipv4,
)
from repro.sim import Simulator


class Sink:
    """Port owner that records (time, frame)."""

    def __init__(self, sim):
        self.sim = sim
        self.received = []
        self.port = Port(self, "sink")

    def on_frame(self, frame, port):
        self.received.append((self.sim.now, frame))


def make_frame(size_payload=100, src=1, dst=2):
    payload = Payload(size_payload)
    dgram = UdpDatagram(1000, 2000, payload)
    pkt = ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), dgram)
    return EthernetFrame(MacAddress(src), MacAddress(dst), 0x0800, pkt)


class TestPacketSizes:
    def test_udp_size(self):
        d = UdpDatagram(1, 2, Payload(100))
        assert d.size == 108

    def test_tcp_size(self):
        seg = TcpSegment(1, 2, 0, 0, 0x10, 65535, payload_size=1460)
        assert seg.size == 1480

    def test_icmp_size(self):
        assert IcmpMessage("echo-request", 1, 1).size == 64

    def test_ipv4_size(self):
        pkt = ipv4(IPv4Address(1), IPv4Address(2), UdpDatagram(1, 2, Payload(100)))
        assert pkt.size == 128

    def test_ethernet_min_padding(self):
        arp = ArpPacket("request", MacAddress(1), IPv4Address(1), None, IPv4Address(2))
        frame = EthernetFrame(MacAddress(1), BROADCAST_MAC, 0x0806, arp)
        assert frame.size == 14 + 4 + 46  # padded to minimum

    def test_gratuitous_arp_detection(self):
        ip = IPv4Address("10.0.0.5")
        g = ArpPacket("reply", MacAddress(1), ip, BROADCAST_MAC, ip)
        assert g.is_gratuitous
        n = ArpPacket("reply", MacAddress(1), ip, MacAddress(2), IPv4Address("10.0.0.6"))
        assert not n.is_gratuitous

    def test_negative_payload_rejected(self):
        with pytest.raises(ValueError):
            Payload(-1)


class TestLink:
    def test_propagation_latency(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        Link(sim, a.port, b.port, latency=0.010, bandwidth_bps=None)
        a.port.transmit(make_frame())
        sim.run()
        assert len(b.received) == 1
        assert b.received[0][0] == pytest.approx(0.010)

    def test_serialization_delay(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        Link(sim, a.port, b.port, latency=0.0, bandwidth_bps=1e6)
        frame = make_frame(size_payload=1000)  # 1146 B on wire
        a.port.transmit(frame)
        sim.run()
        expected = frame.size * 8 / 1e6
        assert b.received[0][0] == pytest.approx(expected)

    def test_back_to_back_frames_queue(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        Link(sim, a.port, b.port, latency=0.0, bandwidth_bps=1e6)
        f = make_frame(1000)
        a.port.transmit(f)
        a.port.transmit(f)
        sim.run()
        t1, t2 = b.received[0][0], b.received[1][0]
        assert t2 == pytest.approx(2 * t1)

    def test_full_duplex_no_interference(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=1e6)
        f = make_frame(1000)
        a.port.transmit(f)
        b.port.transmit(f)
        sim.run()
        assert len(a.received) == len(b.received) == 1
        assert a.received[0][0] == pytest.approx(b.received[0][0])

    def test_queue_overflow_drops(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0, bandwidth_bps=1e4, queue_capacity=2)
        f = make_frame(1000)
        for _ in range(10):
            a.port.transmit(f)
        sim.run()
        # 1 in service escapes the queue before the burst lands; 2 queued.
        assert len(b.received) <= 4
        assert link.ab.drops >= 6

    def test_random_loss(self):
        sim = Simulator(seed=1)
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0, bandwidth_bps=None, loss=0.5)
        f = make_frame(100)

        def tx(sim):
            for _ in range(200):
                a.port.transmit(f)
                yield sim.timeout(0.001)

        sim.process(tx(sim))
        sim.run()
        assert 40 < len(b.received) < 160
        assert link.ab.frames_lost == 200 - len(b.received)

    def test_loss_validation(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        with pytest.raises(ValueError):
            Link(sim, a.port, b.port, loss=1.0)

    def test_reshaping(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0, bandwidth_bps=1e6)
        link.set_bandwidth(2e6)
        f = make_frame(1000)
        a.port.transmit(f)
        sim.run()
        assert b.received[0][0] == pytest.approx(f.size * 8 / 2e6)

    def test_byte_accounting(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port)
        f = make_frame(100)
        a.port.transmit(f)
        b.port.transmit(f)
        sim.run()
        assert link.total_bytes == 2 * f.size


class TestLinkAdminState:
    def test_admin_down_drops_and_counts(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=None,
                    name="adm")
        link.admin_down()
        f = make_frame()
        a.port.transmit(f)
        b.port.transmit(f)
        sim.run()
        assert a.received == [] and b.received == []
        assert link.frames_dropped_down == 2
        assert not link.running

    def test_admin_up_restores_delivery(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=None)
        link.admin_down()
        a.port.transmit(make_frame())
        sim.run()
        link.admin_up()
        a.port.transmit(make_frame())
        sim.run()
        assert len(b.received) == 1
        assert link.frames_dropped_down == 1
        assert link.running

    def test_admin_down_is_link_stop(self):
        """admin_down/up ride the lifecycle protocol, so the link shows
        up as a stoppable component in the registry."""
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, name="edge")
        assert sim.components.get(link.component_id) is link
        sim.components.stop(link.component_id)
        a.port.transmit(make_frame())
        sim.run()
        assert b.received == []
        sim.components.restore(link.component_id)
        a.port.transmit(make_frame())
        sim.run()
        assert len(b.received) == 1

    def test_set_latency_mid_flight(self):
        """Reconfiguring latency only affects frames not yet on the wire."""
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0.010, bandwidth_bps=None)
        a.port.transmit(make_frame())

        def reconfigure(sim):
            yield sim.timeout(0.001)  # first frame is already in flight
            link.set_latency(0.050)
            a.port.transmit(make_frame())

        sim.process(reconfigure(sim))
        sim.run()
        t1, t2 = (t for t, _ in b.received)
        assert t1 == pytest.approx(0.010)
        assert t2 == pytest.approx(0.001 + 0.050)

    def test_set_bandwidth_mid_flight(self):
        """A frame in service finishes at the old rate; queued frames
        serialize at the new one."""
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0.0, bandwidth_bps=1e6)
        f = make_frame(1000)
        a.port.transmit(f)  # in service at 1 Mb/s
        a.port.transmit(f)  # queued
        link.set_bandwidth(10e6)
        sim.run()
        t1, t2 = (t for t, _ in b.received)
        assert t1 == pytest.approx(f.size * 8 / 1e6)
        assert t2 == pytest.approx(t1 + f.size * 8 / 10e6)

    def test_set_loss_mid_run(self):
        sim = Simulator(seed=4)
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0, bandwidth_bps=None,
                    loss=0.0)
        f = make_frame(100)

        def tx(sim):
            for _ in range(100):
                a.port.transmit(f)
                yield sim.timeout(0.001)
            link.set_loss(0.9)
            for _ in range(100):
                a.port.transmit(f)
                yield sim.timeout(0.001)

        sim.process(tx(sim))
        sim.run()
        # The lossless first half all arrives; the 90%-loss second half
        # mostly does not.
        assert 100 <= len(b.received) < 140
        assert link.ab.frames_lost == 200 - len(b.received)

    def test_port_down_blocks_both_directions(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=None)
        b.port.up = False
        a.port.transmit(make_frame())  # delivery side down: dropped on rx
        b.port.transmit(make_frame())  # transmit side down: never sent
        sim.run()
        assert a.received == [] and b.received == []
        b.port.up = True
        a.port.transmit(make_frame())
        sim.run()
        assert len(b.received) == 1

    def test_port_disconnect(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=None)
        assert a.port.connected
        a.port.disconnect()
        assert not a.port.connected
        a.port.transmit(make_frame())  # no medium: silently dropped
        sim.run()
        assert b.received == []


class TestLinkStation:
    """Edge cases of the analytic link station."""

    def test_folded_arrival_after_admin_down_is_dropped(self):
        sim = Simulator()
        sw = Switch(sim, forward_delay=5e-6)
        a, b = Sink(sim), Sink(sim)
        patch(a.port, sw.new_port())
        link = Link(sim, sw.new_port(), b.port, latency=0.001, bandwidth_bps=1e6)
        a.port.transmit(make_frame())  # flooded: reaches the link at 5us
        link.admin_down()  # before the frame arrives
        sim.run()
        assert b.received == []
        assert link.frames_dropped_down == 1
        assert link.ab.frames_sent == 0 and link.ab.bytes_sent == 0
        assert sim.now == 0.0  # its delivery was taken off the calendar

    def test_frame_arrived_before_admin_down_drains(self):
        sim = Simulator()
        sw = Switch(sim, forward_delay=5e-6)
        a, b = Sink(sim), Sink(sim)
        patch(a.port, sw.new_port())
        link = Link(sim, sw.new_port(), b.port, latency=0.001, bandwidth_bps=1e6)
        f = make_frame()
        a.port.transmit(f)
        sim.run(until=10e-6)  # arrived at 5us, serializing
        link.admin_down()
        sim.run()
        assert [t for t, _ in b.received] == [5e-6 + f.size * 8.0 / 1e6 + 0.001]
        assert link.frames_dropped_down == 0

    def test_bytes_sent_excludes_frame_in_service(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0.001, bandwidth_bps=1e6)
        f = make_frame(1000)
        a.port.transmit(f)
        a.port.transmit(f)
        tx = f.size * 8.0 / 1e6
        sim.run(until=tx / 2)
        assert (link.ab.bytes_sent, link.ab.frames_sent) == (0, 0)
        sim.run(until=tx * 1.5)
        assert (link.ab.bytes_sent, link.ab.frames_sent) == (f.size, 1)
        sim.run()
        assert (link.ab.bytes_sent, link.ab.frames_sent) == (2 * f.size, 2)
        assert link.total_bytes == 2 * f.size

    def test_drop_tail_counts_waiting_frames(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        link = Link(sim, a.port, b.port, latency=0.0, bandwidth_bps=1e6,
                    queue_capacity=2)
        for _ in range(5):
            a.port.transmit(make_frame(1000))
        sim.run()
        # One on the serializer plus two queued get through.
        assert len(b.received) == 3 and link.ab.drops == 2


class TestPortPatch:
    def test_patch_is_bidirectional_zero_delay(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        patch(a.port, b.port)
        a.port.transmit(make_frame())
        b.port.transmit(make_frame())
        assert len(a.received) == len(b.received) == 1

    def test_double_connect_rejected(self):
        sim = Simulator()
        a, b, c = Sink(sim), Sink(sim), Sink(sim)
        patch(a.port, b.port)
        with pytest.raises(RuntimeError):
            patch(a.port, c.port)

    def test_down_port_blackholes(self):
        sim = Simulator()
        a, b = Sink(sim), Sink(sim)
        patch(a.port, b.port)
        b.port.up = False
        a.port.transmit(make_frame())
        assert b.received == []


class TestSwitch:
    def build(self, sim, n=3):
        sw = Switch(sim, forward_delay=0)
        sinks = []
        for _ in range(n):
            s = Sink(sim)
            patch(s.port, sw.new_port())
            sinks.append(s)
        return sw, sinks

    def test_unknown_destination_floods(self):
        sim = Simulator()
        sw, (s1, s2, s3) = self.build(sim)
        s1.port.transmit(make_frame(src=1, dst=9))
        sim.run()
        assert len(s2.received) == 1 and len(s3.received) == 1
        assert s1.received == []

    def test_learning_then_unicast(self):
        sim = Simulator()
        sw, (s1, s2, s3) = self.build(sim)
        s1.port.transmit(make_frame(src=1, dst=9))  # learn MAC 1 at port 0
        s2.port.transmit(make_frame(src=2, dst=1))  # unicast to port 0
        sim.run()
        assert len(s1.received) == 1
        assert len(s3.received) == 1  # only the flooded frame

    def test_broadcast_always_floods(self):
        sim = Simulator()
        sw, (s1, s2, s3) = self.build(sim)
        bcast = EthernetFrame(MacAddress(1), BROADCAST_MAC, 0x0800,
                              make_frame().payload)
        s1.port.transmit(bcast)
        sim.run()
        assert len(s2.received) == len(s3.received) == 1

    def test_relearning_on_move(self):
        """The mechanism behind seamless migration: gratuitous traffic from
        a new port rewrites the MAC table entry."""
        sim = Simulator()
        sw, (s1, s2, s3) = self.build(sim)
        s1.port.transmit(make_frame(src=7, dst=99))  # MAC 7 at port of s1
        sim.run()
        s3.port.transmit(make_frame(src=7, dst=99))  # MAC 7 moved to s3
        sim.run()
        s2.port.transmit(make_frame(src=2, dst=7))
        sim.run()
        # s3: initial flood from s1 + the unicast that followed the move.
        assert len(s3.received) == 2
        assert len(s1.received) == 1  # only the flood from s3's frame

    def test_same_port_destination_dropped(self):
        sim = Simulator()
        sw, (s1, s2, s3) = self.build(sim)
        s1.port.transmit(make_frame(src=5, dst=6))
        sim.run()
        s1.port.transmit(make_frame(src=6, dst=5))  # learns 6 on same port
        sim.run()
        before = len(s2.received) + len(s3.received)
        s1.port.transmit(make_frame(src=6, dst=5))  # 5 known on in-port
        sim.run()
        assert len(s2.received) + len(s3.received) == before

    def test_remove_port_purges_macs(self):
        sim = Simulator()
        sw, (s1, s2, s3) = self.build(sim)
        s1.port.transmit(make_frame(src=1, dst=9))
        sim.run()
        port = sw.ports[0]
        sw.remove_port(port)
        assert sw.lookup(MacAddress(1)) is None

    def test_mac_aging(self):
        sim = Simulator()
        sw = Switch(sim, forward_delay=0, mac_age_limit=10.0)
        s1, s2 = Sink(sim), Sink(sim)
        patch(s1.port, sw.new_port())
        patch(s2.port, sw.new_port())
        s1.port.transmit(make_frame(src=1, dst=9))
        sim.run()
        assert sw.lookup(MacAddress(1)) is not None
        sim.run(until=sim.now + 11)
        assert sw.lookup(MacAddress(1)) is None
