"""Tests for the CAN overlay: join, routing, put/get, leave, RPC layer."""

import pytest

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.net.wan import WanCloud
from repro.overlay.can import CanNode
from repro.overlay.resources import ConnectionInfo, ResourceRecord
from repro.overlay.rpc import RpcEndpoint, RpcError, RpcTimeout
from repro.scenarios.builder import make_public_host
from repro.scenarios.storm import StormLane
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator


def make_conn_info(ip="8.0.0.1", port=20001):
    return ConnectionInfo(IPv4Address("9.0.0.1"), 4001, IPv4Address(ip), port,
                          IPv4Address("192.168.1.10"), 6000, NatType.PORT_RESTRICTED)


def build_overlay(sim, n_nodes, cloud_latency=0.005):
    cloud = WanCloud(sim, default_latency=cloud_latency)
    nodes = []
    for i in range(n_nodes):
        host = make_public_host(sim, cloud, f"rvz{i}", f"9.0.{i // 250}.{(i % 250) + 1}",
                                network="9.0.0.0/8")
        nodes.append(CanNode(host, dims=2))
    nodes[0].bootstrap()

    def joiner(sim):
        for node in nodes[1:]:
            yield sim.process(node.join_via(nodes[0].ip))

    p = sim.process(joiner(sim))
    sim.run(until=p)
    return cloud, nodes


class TestRpcLayer:
    def build_pair(self, sim):
        cloud = WanCloud(sim, default_latency=0.005)
        a = make_public_host(sim, cloud, "a", "9.0.0.1", network="9.0.0.0/8")
        b = make_public_host(sim, cloud, "b", "9.0.0.2", network="9.0.0.0/8")
        ep_a = RpcEndpoint(a.stack, a.udp.bind(5000), "a")
        ep_b = RpcEndpoint(b.stack, b.udp.bind(5000), "b")
        return ep_a, ep_b

    def test_sync_handler_roundtrip(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)
        ep_b.register("echo", lambda body, ip, port: ("echoed", body))

        def caller(sim):
            result = yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "echo", 42)
            return result

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert p.value == ("echoed", 42)

    def test_generator_handler(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)

        def slow(body, ip, port):
            yield sim.timeout(0.5)
            return body * 2

        ep_b.register("slow", slow)

        def caller(sim):
            t0 = sim.now
            result = yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "slow", 21)
            return result, sim.now - t0

        p = sim.process(caller(sim))
        sim.run(until=10)
        result, elapsed = p.value
        assert result == 42
        assert elapsed >= 0.5

    def test_handler_error_propagates(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)

        def bad(body, ip, port):
            raise ValueError("nope")

        ep_b.register("bad", bad)

        def caller(sim):
            try:
                yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "bad", None)
            except RpcError as exc:
                return str(exc)

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert "nope" in p.value

    def test_unknown_kind_is_error(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)

        def caller(sim):
            try:
                yield from ep_a.call(IPv4Address("9.0.0.2"), 5000, "missing", None)
            except RpcError:
                return "error"

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert p.value == "error"

    def test_timeout_after_retries(self):
        sim = Simulator()
        ep_a, _ep_b = self.build_pair(sim)

        def caller(sim):
            try:
                yield from ep_a.call(IPv4Address("9.0.0.99"), 5000, "x", None,
                                     timeout=0.2, retries=2)
            except RpcTimeout:
                return sim.now

        p = sim.process(caller(sim))
        sim.run(until=10)
        assert p.value == pytest.approx(0.4, abs=0.05)

    def test_duplicate_handler_rejected(self):
        sim = Simulator()
        ep_a, _ = self.build_pair(sim)
        ep_a.register("k", lambda b, i, p: None)
        with pytest.raises(RuntimeError):
            ep_a.register("k", lambda b, i, p: None)

    def test_notify_fire_and_forget(self):
        sim = Simulator()
        ep_a, ep_b = self.build_pair(sim)
        seen = []
        ep_b.register("note", lambda body, ip, port: seen.append(body))
        ep_a.notify(IPv4Address("9.0.0.2"), 5000, "note", "hello")
        sim.run(until=1)
        assert seen == ["hello"]


class TestCanOverlay:
    def test_bootstrap_owns_everything(self):
        sim = Simulator()
        _cloud, nodes = build_overlay(sim, 1)
        assert nodes[0].owns((0.3, 0.7))
        assert nodes[0].owns((0.99, 0.01))

    def test_zones_partition_space_after_joins(self):
        sim = Simulator(seed=1)
        _cloud, nodes = build_overlay(sim, 8)
        import numpy as np
        rng = np.random.default_rng(0)
        for _ in range(200):
            p = tuple(rng.random(2))
            owners = [n for n in nodes if n.owns(p)]
            assert len(owners) == 1, f"{p} owned by {[o.node_id for o in owners]}"

    def test_total_volume_is_one(self):
        sim = Simulator(seed=2)
        _cloud, nodes = build_overlay(sim, 8)
        total = sum(z.volume() for n in nodes for z in n.zones)
        assert total == pytest.approx(1.0)

    def test_neighbor_symmetry(self):
        sim = Simulator(seed=3)
        _cloud, nodes = build_overlay(sim, 6)
        sim.run(until=sim.now + 30)  # let pings settle
        by_id = {n.node_id: n for n in nodes}
        for n in nodes:
            for other_id in n.neighbors:
                assert n.node_id in by_id[other_id].neighbors, \
                    f"{other_id} missing backlink to {n.node_id}"

    def test_put_get_roundtrip_across_overlay(self):
        sim = Simulator(seed=4)
        _cloud, nodes = build_overlay(sim, 8)
        record = ResourceRecord("host-x", (0.123, 0.876), {"cpu_ghz": 2.0},
                                make_conn_info())

        def runner(sim):
            yield from nodes[3].route("put", record.point, record)
            got = yield from nodes[6].route("get", record.point, 4)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        names = [r.host_name for r in p.value]
        assert "host-x" in names

    def test_get_returns_nearest_records(self):
        sim = Simulator(seed=5)
        _cloud, nodes = build_overlay(sim, 4)

        def runner(sim):
            for i, point in enumerate([(0.1, 0.1), (0.12, 0.12), (0.9, 0.9)]):
                rec = ResourceRecord(f"h{i}", point, {}, make_conn_info())
                yield from nodes[0].route("put", point, rec)
            got = yield from nodes[0].route("get", (0.11, 0.11), 2)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        names = {r.host_name for r in p.value}
        assert names <= {"h0", "h1"}

    def test_remove_record(self):
        sim = Simulator(seed=6)
        _cloud, nodes = build_overlay(sim, 4)

        def runner(sim):
            rec = ResourceRecord("gone", (0.4, 0.4), {}, make_conn_info())
            yield from nodes[1].route("put", rec.point, rec)
            yield from nodes[2].route("remove", rec.point, "gone")
            got = yield from nodes[3].route("get", rec.point, 8)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        assert all(r.host_name != "gone" for r in p.value)

    def test_routing_hop_latency_is_real(self):
        """Routing across the overlay takes at least one cloud RTT."""
        sim = Simulator(seed=7)
        _cloud, nodes = build_overlay(sim, 8, cloud_latency=0.020)
        # Find a node and a point it does NOT own.
        src = nodes[5]
        point = (0.01, 0.01)
        if src.owns(point):
            src = nodes[0] if not nodes[0].owns(point) else nodes[1]

        def runner(sim):
            t0 = sim.now
            yield from src.route("get", point, 1)
            return sim.now - t0

        p = sim.process(runner(sim))
        sim.run(until=p)
        assert p.value >= 0.040  # at least one 20 ms hop each way

    def test_graceful_leave_hands_over_records(self):
        sim = Simulator(seed=8)
        _cloud, nodes = build_overlay(sim, 4)
        record = ResourceRecord("kept", (0.77, 0.77), {}, make_conn_info())

        def runner(sim):
            yield from nodes[0].route("put", record.point, record)
            owner = next(n for n in nodes if n.owns(record.point))
            yield sim.process(owner.leave())
            # Someone else must own the point and still have the record.
            survivors = [n for n in nodes if n.joined]
            got = yield from survivors[0].route("get", record.point, 8)
            return got, sum(z.volume() for n in survivors for z in n.zones)

        p = sim.process(runner(sim))
        sim.run(until=p)
        records, volume = p.value
        assert "kept" in {r.host_name for r in records}
        assert volume == pytest.approx(1.0)

    def test_record_ttl_expiry(self):
        sim = Simulator(seed=9)
        _cloud, nodes = build_overlay(sim, 2)
        for n in nodes:
            n.record_ttl = 5.0

        def runner(sim):
            rec = ResourceRecord("fleeting", (0.6, 0.6), {}, make_conn_info())
            yield from nodes[0].route("put", rec.point, rec)
            yield sim.timeout(30.0)
            got = yield from nodes[1].route("get", rec.point, 8)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        assert all(r.host_name != "fleeting" for r in p.value)

    def test_routing_scales_to_32_nodes(self):
        sim = Simulator(seed=10)
        _cloud, nodes = build_overlay(sim, 32)

        def runner(sim):
            rec = ResourceRecord("far", (0.95, 0.05), {}, make_conn_info())
            yield from nodes[17].route("put", rec.point, rec)
            got = yield from nodes[31].route("get", rec.point, 2)
            return got

        p = sim.process(runner(sim))
        sim.run(until=p)
        assert "far" in {r.host_name for r in p.value}


class TestCanRemerge:
    def test_zones_remerge_when_load_drains(self):
        sim = Simulator(seed=13)
        env = WavnetEnvironment(sim, n_rendezvous=2, replication_factor=1,
                                hot_zone_limit=4)
        env.up()
        lane = StormLane(sim, env, region=0, count=48, base_index=0)
        sim.run_coro(lane.register(batch_size=16))

        def can_stats(name):
            return sum(int(sim.metrics.value(f"{s.can.node_id}.can.{name}"))
                       for s in env.rendezvous)

        zones_before = sum(len(s.can.zones) for s in env.rendezvous)
        assert can_stats("splits") >= 1
        assert zones_before > len(env.rendezvous)

        # Drain: drop every stored handle, then let the ping loops run a
        # few maintenance rounds.
        for s in env.rendezvous:
            s.can.handles.clear()
            s.can.handle_replicas.clear()
        sim.run(until=sim.now + 80.0)

        zones_after = sum(len(s.can.zones) for s in env.rendezvous)
        assert can_stats("remerges") >= 1
        assert zones_after < zones_before
