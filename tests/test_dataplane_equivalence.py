"""Differential equivalence of the packet data plane.

Each scenario records every frame hand-off the data plane makes to a
consumer, in dispatch order, as ``(sim.now, receiver, frame.size)``:

* every ``NetworkStack.receive_frame`` call (hosts, VMs, NAT boxes);
* every tap capture hand-off (the tap passing a frame to the WAVNet
  driver) and every tap inject hand-off (the tap putting a frame on its
  bridge port).

The sequence is hashed and compared with a digest recorded on the
callback/process data plane that the analytic FIFO stations replaced,
together with ``sim.now`` at the end of the scenario. Times are compared
exactly (``repr`` of the float), so any change to a delivery time, to the
order of two hand-offs at one receiver, or to which frames are dropped
fails the test. Only the interleaving of hand-offs to different
receivers at the very same instant is not compared (see
``_Recorder.result``).
"""

from __future__ import annotations

import hashlib

import pytest

from repro.core.driver import WavnetDriver
from repro.core.tap import TapDevice
from repro.net.addresses import IPv4Address, MacAddress
from repro.net.l2 import Link, Port
from repro.net.packet import EthernetFrame, Payload, UdpDatagram, ipv4
from repro.net.stack import NetworkStack
from repro.sim import Simulator


class _Recorder:
    def __init__(self) -> None:
        self.handoffs: list[tuple[float, str, int]] = []

    def add(self, now: float, receiver: str, size: int) -> None:
        self.handoffs.append((now, receiver, size))

    def result(self, sim) -> tuple:
        # Dispatch order is time order. Within one instant, simultaneous
        # hand-offs to *different* receivers are put in receiver order:
        # the kernel breaks such ties by schedule order, and a station
        # schedules a delivery when the frame is queued rather than when
        # its serialization ends. Each receiver's own order is kept
        # (stable sort).
        h = hashlib.sha256()
        for now, receiver, size in sorted(self.handoffs, key=lambda e: (e[0], e[1])):
            h.update(f"{now!r} {receiver} {size}\n".encode())
        return len(self.handoffs), h.hexdigest()[:16], repr(sim.now)


@pytest.fixture
def recorder(monkeypatch):
    rec = _Recorder()
    receive_frame = NetworkStack.receive_frame
    on_captured = WavnetDriver._on_captured_frame
    transmit = Port.transmit

    def rx(self, iface, frame):
        rec.add(self.sim.now, f"{self.name}/{iface.name}", frame.size)
        return receive_frame(self, iface, frame)

    def captured(self, frame):
        rec.add(self.sim.now, f"{self.name}:capture", frame.size)
        return on_captured(self, frame)

    def tx(self, frame, *args, **kwargs):
        owner = self.owner
        if isinstance(owner, TapDevice):
            rec.add(owner.sim.now, f"{owner.name}:inject", frame.size)
        return transmit(self, frame, *args, **kwargs)

    monkeypatch.setattr(NetworkStack, "receive_frame", rx)
    monkeypatch.setattr(WavnetDriver, "_on_captured_frame", captured)
    monkeypatch.setattr(Port, "transmit", tx)
    return rec


# -- scenarios ---------------------------------------------------------------

def _wavnet_ttcp(rec):
    from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
    from repro.scenarios.stacks import wavnet_pair

    pair = wavnet_pair(0.0742, 18.6e6, seed=2, send_buf=327680, recv_buf=327680)
    sim = pair.sim
    sim.process(ttcp_receiver(pair.host_b))
    tx = sim.process(ttcp_transfer(pair.host_a, pair.ip_b, 2 * 1024 * 1024,
                                   buf_size=16384))
    sim.run(until=tx)
    return sim


def _phys_netperf(rec):
    from repro.apps.netperf import netperf_stream, netserver
    from repro.scenarios.stacks import physical_pair

    pair = physical_pair(0.020, 50e6, seed=5)
    sim = pair.sim
    sim.process(netserver(pair.host_b))
    p = sim.process(netperf_stream(pair.host_a, pair.ip_b, duration=3.0))
    sim.run(until=p)
    return sim


def _ipop_ttcp(rec):
    from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
    from repro.scenarios.stacks import ipop_pair

    pair = ipop_pair(0.0742, 18.6e6, seed=3, send_buf=327680, recv_buf=327680)
    sim = pair.sim
    sim.process(ttcp_receiver(pair.host_b))
    tx = sim.process(ttcp_transfer(pair.host_a, pair.ip_b, 1024 * 1024,
                                   buf_size=16384))
    sim.run(until=tx)
    return sim


def _lossy_cubic(rec):
    from repro.net.tcp import drain_bytes, stream_bytes
    from repro.scenarios.builder import host_pair

    sim = Simulator(seed=7)
    a, b, _ = host_pair(sim, latency=0.005, bandwidth_bps=20e6, loss=0.02,
                        queue_capacity=64)
    lst = b.tcp.listen(5001)

    def srv(sim):
        conn = yield lst.accept()
        yield from drain_bytes(conn)

    def cli(sim):
        conn = a.tcp.connect(IPv4Address("10.0.0.2"), 5001)
        yield conn.wait_established()
        yield from stream_bytes(conn, 2_000_000)
        conn.close()

    sim.process(srv(sim))
    sim.process(cli(sim))
    sim.run(until=300)
    return sim


def _churn(rec):
    from repro.scenarios.churn import churn_recovery

    sim, payload = churn_recovery(seed=1)
    assert payload["faults_injected"] == 6  # includes the NAT reboot and link flap
    return sim


def _traversal(rec):
    from repro.scenarios.traversal import traversal_pair

    sim, _payload = traversal_pair(seed=3, nat_a="symmetric-sequential",
                                   nat_b="port-restricted")
    return sim


class _Sink:
    """Port owner standing in for a host: records each frame it receives."""

    def __init__(self, sim, rec, name):
        self.sim = sim
        self.rec = rec
        self.name = name
        self.port = Port(self, name)

    def on_frame(self, frame, port):
        self.rec.add(self.sim.now, self.name, frame.size)


def _frame(payload_size, src=1, dst=2):
    dgram = UdpDatagram(1000, 2000, Payload(payload_size))
    pkt = ipv4(IPv4Address("10.0.0.1"), IPv4Address("10.0.0.2"), dgram)
    return EthernetFrame(MacAddress(src), MacAddress(dst), 0x0800, pkt)


def _shaped_overflow(rec):
    """Bursts into a shaped link with a short queue, both directions,
    with loss: drop-tail, in-service frames and the shared loss stream."""
    sim = Simulator(seed=11)
    a, b = _Sink(sim, rec, "a"), _Sink(sim, rec, "b")
    Link(sim, a.port, b.port, latency=0.003, bandwidth_bps=2e6,
         queue_capacity=4, loss=0.1, name="shaped")

    def burst(sim, port, sizes, gap):
        for i, size in enumerate(sizes):
            for _ in range(1 + i % 7):
                port.transmit(_frame(size))
            yield sim.timeout(gap)

    sim.process(burst(sim, a.port, [1400, 60, 900, 1400, 300] * 12, 0.004))
    sim.process(burst(sim, b.port, [80, 1400, 600] * 15, 0.0061))
    sim.run(until=1.0)
    return sim


def _reshaped_mid_queue(rec):
    """set_bandwidth / set_latency / set_loss while frames are queued, in
    service and propagating, plus an admin-down that drains."""
    sim = Simulator(seed=5)
    a, b = _Sink(sim, rec, "a"), _Sink(sim, rec, "b")
    link = Link(sim, a.port, b.port, latency=0.002, bandwidth_bps=1e6,
                queue_capacity=16, loss=0.05, name="reshaped")

    def traffic(sim):
        for i in range(40):
            a.port.transmit(_frame(200 + 37 * i))
            if i % 3 == 0:
                b.port.transmit(_frame(1000 - 11 * i))
            yield sim.timeout(0.0015)

    def reconfigure(sim):
        yield sim.timeout(0.0101)
        link.set_bandwidth(4e6)
        yield sim.timeout(0.0093)
        link.set_latency(0.0005)
        yield sim.timeout(0.0071)
        link.set_bandwidth(0.5e6)
        link.set_loss(0.3)
        yield sim.timeout(0.0124)
        link.set_latency(0.004)
        link.set_bandwidth(None)
        yield sim.timeout(0.0033)
        link.set_bandwidth(3e6)
        link.set_loss(0.0)
        yield sim.timeout(0.0029)
        link.admin_down()
        yield sim.timeout(0.02)
        link.admin_up()

    sim.process(traffic(sim))
    sim.process(reconfigure(sim))
    sim.run()
    return sim


# scenario -> (hand-offs, digest of the hand-off sequence, end sim.now)
EXPECTED = {
    "wavnet_ttcp": (18250, "e92614f6214180e3", "8.321956171784915"),
    "phys_netperf": (23987, "55281e9f3ce27600", "3.04008192"),
    "ipop_ttcp": (8798, "67fd46d5461db18a", "1.8996153161233158"),
    "lossy_cubic": (7967, "ff1ebfcca27f9d3a", "300.0"),
    "churn": (16355, "4a718bab3d1e4b90", "235.17085208000003"),
    "traversal": (134, "b9c2dd8e4d31093c", "6.620234143999986"),
    "shaped_overflow": (134, "5d82380400e53508", "1.0"),
    "reshaped_mid_queue": (34, "65c92f712ea4165f", "0.0651"),
}

SCENARIOS = {
    "wavnet_ttcp": _wavnet_ttcp,
    "phys_netperf": _phys_netperf,
    "ipop_ttcp": _ipop_ttcp,
    "lossy_cubic": _lossy_cubic,
    "churn": _churn,
    "traversal": _traversal,
    "shaped_overflow": _shaped_overflow,
    "reshaped_mid_queue": _reshaped_mid_queue,
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_handoff_sequence_matches_recorded(recorder, name):
    sim = SCENARIOS[name](recorder)
    got = recorder.result(sim)
    assert got == EXPECTED[name]
