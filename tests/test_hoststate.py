"""The million-endpoint control plane: HostTable, fleet, admission,
batched registration, retry coalescing, table-resident fault verbs,
and the lazy materialize/demote lifecycle."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.hoststate import (FLAG_MATERIALIZED, FLAG_REGISTERED,
                                  HostTable)
from repro.exp.spec import ExperimentSpec, run_spec
from repro.faults import FaultInjector
from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.net.wan import WanCloud
from repro.overlay.fleet import HashRing
from repro.overlay.rendezvous import _RegisterBatch, _TokenBucket
from repro.overlay.resources import ConnectionInfo
from repro.overlay.rpc import RpcEndpoint, RpcTimeout
from repro.overlay.space import Zone
from repro.scenarios.builder import make_public_host
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim import Simulator


def _conn(public_port=31000):
    return ConnectionInfo(
        rendezvous_ip=IPv4Address("9.1.0.1"), rendezvous_port=4001,
        public_ip=IPv4Address("8.8.4.4"), public_port=public_port,
        private_ip=IPv4Address("192.168.1.2"), private_port=4242,
        nat_type=NatType.PORT_RESTRICTED)


def _reach():
    return (IPv4Address("7.0.0.1"), 4700)


# -- table basics ------------------------------------------------------

def test_register_row_roundtrip():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    attrs = {"cpu_ghz": 3, "mem_mb": 2048.5}
    host_id = table.register("h0", _conn(), attrs, _reach(), now=1.5, owner=2)
    row = table.row(host_id)
    assert row.name == "h0"
    assert row.registered and not row.materialized
    assert row.last_seen == 1.5
    # The table stamps the freshest observed mapping (the reach port)
    # into rebuilt ConnectionInfos for predicted-port punching.
    assert row.conn == replace(_conn(), observed_port=_reach()[1])
    # Exact attrs survive (no float32 round-trip; ints stay ints).
    assert row.attrs == attrs
    assert table.lookup("h0") == host_id
    assert table.lookup("nope") == -1
    assert int(table.owner[host_id]) == 2


def test_handles_go_stale_on_reregistration():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    i = table.register("h0", _conn(), {}, _reach(), now=0.0)
    handle = table.handle(i)
    assert table.valid_mask(np.array([handle])).all()
    table.register("h0", _conn(public_port=32000), {}, _reach(), now=1.0)
    assert not table.valid_mask(np.array([handle])).any()  # generation bump
    fresh = table.handle(i)
    assert table.valid_mask(np.array([fresh])).all()
    table.unregister(i)
    assert not table.valid_mask(np.array([fresh])).any()


def test_register_batch_vectorized():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    n = 300  # crosses the default-capacity growth boundary
    names = tuple(f"e{i}" for i in range(n))
    ids = table.register_batch(
        names,
        public_ip=np.arange(n, dtype=np.uint32) + 0x0B000000,
        public_port=np.full(n, 20000, dtype=np.uint16),
        private_ip=np.full(n, 0xC0A80002, dtype=np.uint32),
        private_port=np.full(n, 4242, dtype=np.uint16),
        nat_code=np.full(n, 3, dtype=np.uint8),
        attr_values=np.tile(np.array([4.0, 1024.0], dtype=np.float32), (n, 1)),
        rendezvous=(IPv4Address("9.1.0.1"), 4001),
        reach=_reach(), now=2.0, owner=1, region=7)
    assert len(ids) == n and table.registered_count == n
    assert table.names_in_region(7) == list(names)
    handles = np.array([table.handle(int(i)) for i in ids])
    assert table.valid_mask(handles).all()
    # Coordinates normalized into [0, 1): cpu 4/16, mem 1024/32768.
    assert np.allclose(table.coords[ids][:, 0], 0.25)
    rec = table.record(int(ids[0]))
    assert rec.host_name == "e0"
    assert rec.conn.nat_type is NatType.PORT_RESTRICTED


def test_expiry_exempts_materialized_and_release_owner():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    a = table.register("a", _conn(), {}, _reach(), now=0.0, owner=0)
    b = table.register("b", _conn(), {}, _reach(), now=0.0, owner=0)
    table.register("c", _conn(), {}, _reach(), now=50.0, owner=1)
    table.flags[a] |= FLAG_MATERIALIZED
    assert table.expire(horizon=10.0) == ["b"]  # a exempt, c fresh
    assert not (table.flags[b] & FLAG_REGISTERED)
    released = table.release_owner(1)
    assert released == ["c"]
    assert table.registered_count == 1  # only the materialized row


def test_zone_selection_vectorized():
    sim = Simulator(seed=1)
    table = HostTable(sim)
    lo = table.register("lo", _conn(), {"cpu_ghz": 2.0, "mem_mb": 1000.0},
                        _reach(), now=0.0)
    hi = table.register("hi", _conn(), {"cpu_ghz": 14.0, "mem_mb": 30000.0},
                        _reach(), now=0.0)
    lower, upper = Zone.whole(2).split()
    ids = np.array([lo, hi])
    assert list(table.ids_in_zone(lower, ids)) == [lo]
    assert list(table.ids_in_zone(upper, ids)) == [hi]


# -- admission ---------------------------------------------------------

def test_token_bucket_deterministic_refill():
    bucket = _TokenBucket(rate=10.0, burst=5.0)
    assert bucket.admit(0.0, 5)
    assert not bucket.admit(0.0, 1)
    assert bucket.retry_after(1) == pytest.approx(0.1)
    assert bucket.admit(0.5, 5)  # refilled 10/s * 0.5s
    assert not bucket.admit(0.5, 1)


def test_rendezvous_batch_registration_and_query():
    sim = Simulator(seed=3)
    env = WavnetEnvironment(sim, n_rendezvous=1)
    server = env.rendezvous[0]
    n = 40
    batch = _RegisterBatch(
        names=tuple(f"b{i}" for i in range(n)),
        public_ip=np.arange(n, dtype=np.uint32) + 0x0B000000,
        public_port=np.full(n, 21000, dtype=np.uint16),
        private_ip=np.full(n, 0xC0A80002, dtype=np.uint32),
        private_port=np.full(n, 4242, dtype=np.uint16),
        nat_code=np.full(n, 3, dtype=np.uint8),
        attr_values=np.tile(np.array([8.0, 16384.0], dtype=np.float32),
                            (n, 1)),
        region=2)
    result = server._on_register_batch(batch, *_reach())
    assert sim.run_coro(result)[1] == n
    assert len(server.hosts) == n
    assert "b7" in server.hosts and server.hosts["b7"].registered
    # Handle-backed directory answers queries without full records.
    records = sim.run_coro(
        server.can.route("get", (0.5, 0.5), 5))
    assert 0 < len(records) <= 5
    assert all(r.host_name.startswith("b") for r in records)


# -- fleet -------------------------------------------------------------

def test_fleet_consistent_assignment_and_failover():
    sim = Simulator(seed=5)
    env = WavnetEnvironment(sim, n_rendezvous=3)
    fleet = env.fleet
    before = {f"n{i}": fleet.assign_index(f"n{i}") for i in range(50)}
    # Stable across repeated calls.
    assert before == {f"n{i}": fleet.assign_index(f"n{i}") for i in range(50)}
    assert len(set(before.values())) == 3  # all servers get endpoints
    victim = env.rendezvous[0]
    victim.crash()
    after = {name: fleet.assign_index(name) for name in before}
    moved = {n for n in before if before[n] != after[n]}
    assert moved == {n for n, idx in before.items() if idx == 0}
    assert all(after[n] != 0 for n in moved)
    victim.restore()
    assert before == {name: fleet.assign_index(name) for name in before}
    loads = fleet.publish_load()
    assert set(loads) == {s.host.name for s in env.rendezvous}


class TestHashRing:
    def test_stable_across_instances(self):
        names = [f"rvz{i}" for i in range(4)]
        a, b = HashRing(names), HashRing(names)
        for endpoint in ("alice", "bob", "s3h7", "host-17"):
            assert a.index(endpoint) == b.index(endpoint)

    def test_order_is_a_permutation_starting_at_primary(self):
        ring = HashRing([f"rvz{i}" for i in range(4)])
        for endpoint in ("alice", "bob", "s3h7"):
            order = ring.order(endpoint)
            assert sorted(order) == [0, 1, 2, 3]
            assert order[0] == ring.index(endpoint)

    def test_endpoints_spread_over_all_servers(self):
        ring = HashRing([f"rvz{i}" for i in range(4)])
        counts = [0] * 4
        for j in range(256):
            counts[ring.index(f"h{j}")] += 1
        assert all(c > 0 for c in counts)

    def test_empty_ring_rejected(self):
        with pytest.raises(ValueError):
            HashRing([])


class TestFleetAssignment:
    def test_default_endpoint_is_fleet_assigned(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        host_id = env.add_endpoint("endpoint-a")
        cfg = env.table.site_config(host_id)
        assert cfg["fleet_assigned"] is True
        assert cfg["rendezvous_index"] == env.ring.index("endpoint-a")
        assert env.assign_rendezvous("endpoint-a") == env.ring.index("endpoint-a")

    def test_explicit_index_overrides_fleet(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        host_id = env.add_endpoint("endpoint-b", rendezvous_index=1)
        cfg = env.table.site_config(host_id)
        assert cfg["fleet_assigned"] is False
        assert cfg["rendezvous_index"] == 1

    def test_static_ring_agrees_with_live_fleet(self):
        sim = Simulator(seed=2)
        env = WavnetEnvironment(sim, n_rendezvous=3)
        for endpoint in ("a", "b", "c", "host-17", "s2h9"):
            assert env.ring.index(endpoint) == env.fleet.ring.index(endpoint)


# -- retry coalescing --------------------------------------------------

def test_retry_coalescing_caps_probes_per_destination():
    sim = Simulator(seed=9)
    cloud = WanCloud(sim, default_latency=0.005)
    host = make_public_host(sim, cloud, "caller", "7.2.0.1",
                            network="7.2.0.0/24")
    make_public_host(sim, cloud, "void", "7.2.0.2", network="7.2.0.0/24")
    rpc = RpcEndpoint(host.stack, host.udp.bind(5001), name="caller",
                      retry_concurrency=1)
    outcomes = []

    def attempt():
        try:
            yield from rpc.call(IPv4Address("7.2.0.2"), 9999, "nothing",
                                None, timeout=0.2, retries=4)
        except RpcTimeout:
            outcomes.append("timeout")

    procs = [sim.process(attempt()) for _ in range(4)]

    def drive():
        for p in procs:
            yield p

    sim.run_coro(drive())
    assert outcomes == ["timeout"] * 4
    coalesced = sim.metrics.value("caller.rpc.retries_coalesced")
    retries = sim.metrics.value("caller.rpc.retries")
    assert coalesced > 0
    assert retries < 4 * 3  # ungated would send every retry


# -- table-resident fault verbs ---------------------------------------

def test_endpoint_fault_verbs_without_materialization():
    sim = Simulator(seed=2)
    table = HostTable(sim)
    for i, region in enumerate([0, 0, 1]):
        table.register(f"f{i}", _conn(), {}, _reach(), now=0.0, owner=0,
                       region=region)
    injector = FaultInjector(sim)
    assert injector.endpoint_down(table, "f2") == 1
    assert not table.row_by_name("f2").registered
    assert injector.endpoint_reconnect(table, "f2", owner=1) == 1
    row = table.row_by_name("f2")
    assert row.registered and int(table.owner[table.lookup("f2")]) == 1
    downed = injector.regional_outage(table, 0)
    assert sorted(downed) == ["f0", "f1"]
    assert table.registered_count == 1
    assert sim.metrics.value("faults.injected.regional_outage") == 1


# -- lazy materialization ----------------------------------------------

def test_materialize_demote_rematerialize_cycle():
    sim = Simulator(seed=4)
    env = WavnetEnvironment(sim, n_rendezvous=1)
    env.add_host("anchor")
    env.up()
    host_id = env.add_endpoint("lazy", nat_type="full-cone",
                               attrs={"cpu_ghz": 2.0, "mem_mb": 4096.0})
    assert "lazy" not in env.hosts  # row only, no stack
    wav = env.materialize("lazy")
    sim.run(until=sim.now + 2.0)
    assert "lazy" in env.hosts
    assert bool(env.table.flags[host_id] & FLAG_MATERIALIZED)
    assert "lazy" in env.rendezvous[0].hosts
    vip = wav.virtual_ip
    conn = env.connect("anchor", "lazy")
    assert conn is not None and not conn.relayed
    env.demote("lazy")
    assert "lazy" not in env.hosts
    assert not (env.table.flags[host_id] & FLAG_MATERIALIZED)
    assert f"driver:lazy" not in sim.components
    # Directory row survives demotion with the captured NAT mapping.
    row = env.table.row(host_id)
    assert row.conn.public_ip.value == int(env.table.public_ip[host_id])
    again = env.materialize("lazy")
    sim.run(until=sim.now + 2.0)
    assert again.virtual_ip == vip  # identical rebuild
    assert "lazy" in env.rendezvous[0].hosts
    conn2 = env.connect("anchor", "lazy")
    assert conn2 is not None


# -- the storm scenario -------------------------------------------------

def test_registration_storm_scenario_smoke():
    from repro.scenarios.storm import registration_storm
    sim, payload = registration_storm(
        seed=11, n_endpoints=400, n_rendezvous=2, n_regions=2, batch=64,
        admission_rate=400.0, admission_burst=120.0, hot_zone_limit=60,
        punch_pairs=1)
    assert payload["filled"] == 400
    assert payload["registered"] == 402  # + 2 punch hosts
    assert payload["reconnected"] == payload["outage_endpoints"] == 200
    assert payload["admission_rejected"] > 0
    assert payload["can_splits"] > 0
    assert payload["handles_stored"] >= 400
    assert payload["bytes_per_endpoint"] < 2048
    assert len(payload["punch_latency_s"]) == 1
    assert sum(payload["fleet_load_final"].values()) == 402


class TestKeepaliveSweeps:
    def test_storm_lane_sweeps_batch_keepalives(self):
        spec = ExperimentSpec(
            "registration_storm",
            params={"n_endpoints": 60, "n_rendezvous": 2, "n_regions": 2,
                    "batch": 16, "punch_pairs": 1, "settle": 30.0,
                    "keepalive_interval": 5.0},
            seed=7)
        payload = run_spec(spec)["payload"]
        assert payload["keepalive_sweeps"] > 0
        assert payload["keepalives_acked"] > 0
        # Sweeps are batched: far fewer RPCs than endpoint-keepalives.
        assert payload["keepalive_sweeps"] < payload["keepalives_acked"]
