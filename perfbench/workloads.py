"""The four benchmark workloads.

Every workload turns the benchmark's ``--seed`` into its inputs (scenario
seeds, transfer size, the Poisson flow schedule) and exposes one *rep*
as a list of units. A unit has three steps:

* ``setup(unit)`` builds the topology and brings it up (STUN,
  registration, punching) — timed as set-up;
* ``measure(state)`` runs the workload's measured phase — timed as run;
* ``collect(state)`` checks every op and extracts the simulated outcome,
  outside both timers.

Repeating a rep repeats identical inputs, so its simulated outcome (and
digest) must repeat exactly; only host times vary between reps.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field

import numpy as np

from repro.apps.ttcp import ttcp_receiver, ttcp_transfer
from repro.faults import FaultInjector
from repro.net.fluid import FluidNetwork, FluidPath
from repro.net.icmp import Pinger
from repro.net.tcp import WIRE_OVERHEAD_TCP
from repro.net.wan import WanCloud
from repro.overlay.rpc import RpcError, RpcTimeout
from repro.scenarios.builder import make_public_host
from repro.scenarios.churn import build_churn_env, mesh_converged, scripted_churn_plan
from repro.scenarios.sites import pair_rtt_ms
from repro.scenarios.stacks import wavnet_pair
from repro.scenarios.storm import build_storm_lanes
from repro.scenarios.wavnet_env import WavnetEnvironment
from repro.sim.engine import Simulator

__all__ = ["WORKLOADS", "Outcome", "digest_of"]


@dataclass
class Outcome:
    """What one unit's ``collect`` reports: op counts, the simulated
    latency samples behind ``sim_latency_*``, the workload's own named
    simulated outcomes as ``name -> (value, unit)``, and the data its
    digest covers."""

    attempted: int
    failed: int
    samples: list
    native: dict = field(default_factory=dict)
    digest: object = None


def digest_of(data) -> str:
    """Stable digest of simulated outputs (floats kept at full precision)."""
    blob = json.dumps(data, sort_keys=True, default=repr).encode()
    return hashlib.sha256(blob).hexdigest()[:16]


def _derived_seeds(rng: np.random.Generator, k: int) -> list[int]:
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=k)]


def _join(procs):
    results = []
    for proc in procs:
        results.append((yield proc))
    return results


def _punch_probes(sim, env, pairs: int):
    """Process: punch ``p0-p1``, ``p2-p3``, ... one after another through
    the storm-loaded control plane; returns how many came up usable."""
    punched = 0
    for i in range(pairs):
        try:
            conn = yield sim.process(env.connect_pair(f"p{2 * i}", f"p{2 * i + 1}"))
        except (RpcError, RpcTimeout):
            continue
        punched += int(conn is not None and conn.usable)
    return punched


class TtcpWavnet:
    """Fig 6: one packet-fidelity ttcp transfer between two
    port-restricted NATed WAVNet hosts on the HKU-SIAT path (74.2 ms RTT,
    18.6 Mb/s, 320 KiB buffers, 16 KiB writes). Closed loop: one
    window-limited flow."""

    name = "ttcp_wavnet"
    LATENCY_NAMES = ("sim_transfer_s", "sim_transfer_s")
    RTT = pair_rtt_ms("hku1", "siat") / 1000.0
    BANDWIDTH = 18.6e6
    BUF = 327680
    WRITE = 16384

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = np.random.default_rng([seed, 1])
        # 8 MiB is the ROADMAP's baseline transfer; the seed adds up to
        # 16 extra 16 KiB writes so every seed is a different input.
        base = (256 << 10) if tiny else (8 << 20)
        self.size = base + int(rng.integers(0, 17)) * self.WRITE
        self.sim_seed = _derived_seeds(rng, 1)[0]

    def units(self) -> list:
        return [self.size]

    def setup(self, size: int):
        pair = wavnet_pair(self.RTT, self.BANDWIDTH, seed=self.sim_seed,
                           send_buf=self.BUF, recv_buf=self.BUF)
        return pair, size

    def measure(self, state) -> tuple:
        pair, size = state
        sim = pair.sim
        rx = sim.process(ttcp_receiver(pair.host_b))
        tx = sim.process(ttcp_transfer(pair.host_a, pair.ip_b, size,
                                       buf_size=self.WRITE))
        sim.run(until=tx)
        sim.run(until=rx)
        return state + (tx.value, rx.value)

    def collect(self, state) -> Outcome:
        pair, size, result, received = state
        goodput = result.rate_mbit
        return Outcome(
            attempted=1, failed=int(received != size),
            samples=[result.elapsed],
            native={"sim_goodput_mbps": (goodput, "Mb/s")},
            digest=[size, received, result.elapsed])


class ChurnMesh:
    """``churn_recovery`` over seeds derived from the workload seed: 4
    NATed hosts and 2 rendezvous servers under a scripted rendezvous
    crash, host crash, NAT reboot and link flap, with a 1 Hz ICMP ring
    (open loop in simulated time). One op per seed; it fails if the mesh
    has not converged at the horizon."""

    name = "churn_mesh"
    LATENCY_NAMES = ("sim_repair_p50_s", "sim_repair_tail_s")
    N_HOSTS = 4
    N_RENDEZVOUS = 2
    HORIZON = 220.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = np.random.default_rng([seed, 2])
        self.seeds = _derived_seeds(rng, 1 if tiny else 4)

    def units(self) -> list:
        return list(self.seeds)

    def setup(self, seed: int):
        sim = Simulator(seed=seed)
        env = build_churn_env(sim, n_hosts=self.N_HOSTS,
                              n_rendezvous=self.N_RENDEZVOUS)
        return sim, env

    def measure(self, state) -> tuple:
        sim, env = state
        plan = scripted_churn_plan(sim, env).arm()
        names = list(env.hosts)
        for i, name in enumerate(names):
            nxt = env.hosts[names[(i + 1) % len(names)]]
            pinger = Pinger(env.hosts[name].host.stack, nxt.virtual_ip,
                            interval=1.0, timeout=1.0)
            sim.process(pinger.run(int(self.HORIZON) - 5),
                        name=f"churn-ping:{name}")
        sim.run(until=sim.now + self.HORIZON)
        return state + (plan,)

    def collect(self, state) -> Outcome:
        sim, env, plan = state
        repair, failover = [], []
        frames_lost = 0
        for name in env.hosts:
            scope = sim.metrics.scope(f"{name}.driver")
            repair.extend(scope.histogram("repair.seconds").values.tolist())
            failover.extend(scope.histogram("rvz.failover_seconds").values.tolist())
            frames_lost += int(scope.value("frames.dropped_outage"))
        converged = mesh_converged(env)
        return Outcome(
            attempted=1, failed=int(not converged), samples=repair,
            native={"faults_injected": (len(plan), "count"),
                    "frames_lost": (frames_lost, "count")},
            digest=[converged, repair, failover, frames_lost])


class RegStorm:
    """``registration_storm``: endpoints kept only in the HostTable, 4
    rendezvous servers and 4 regional lanes that batch-register (a closed
    loop per lane). Region 0 then goes down and reconnects in a storm
    while two punch probes run through the loaded control plane. An op
    is one endpoint registration or one punch probe."""

    name = "reg_storm"
    LATENCY_NAMES = ("sim_reconnect_p50_s", "sim_reconnect_tail_s")
    N_RENDEZVOUS = 4
    N_REGIONS = 4
    BATCH = 256
    PUNCH_PAIRS = 2
    OUTAGE_REGION = 0
    SETTLE = 2.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = np.random.default_rng([seed, 3])
        # Several storms per rep: a storm's cost and reconnect time
        # depend on where its seed puts the CAN zones (two modes about
        # 25% apart), so one storm per seed would make the workload
        # seed, not the code, dominate the spread.
        self.n_endpoints = 2_000 if tiny else 12_500
        self.seeds = _derived_seeds(rng, 1 if tiny else 8)

    def units(self) -> list:
        return list(self.seeds)

    def setup(self, seed: int):
        sim = Simulator(seed=seed)
        env = WavnetEnvironment(sim, n_rendezvous=self.N_RENDEZVOUS,
                                replication_factor=1)
        for i in range(2 * self.PUNCH_PAIRS):
            env.add_host(f"p{i}", rendezvous_index=i % self.N_RENDEZVOUS)
        env.up()
        lanes = build_storm_lanes(sim, env, self.n_endpoints, self.N_REGIONS)
        return sim, env, lanes

    def measure(self, state) -> tuple:
        sim, env, lanes = state
        fill = [sim.process(lane.register(self.BATCH), name=f"storm-fill:r{lane.region}")
                for lane in lanes]
        filled = sum(sim.run_coro(_join(fill)))
        downed = FaultInjector(sim).regional_outage(env.table, self.OUTAGE_REGION)
        t_outage = sim.now
        lane = lanes[self.OUTAGE_REGION]
        reconnect = sim.process(lane.register(self.BATCH), name="storm-reconnect")
        punch = sim.process(_punch_probes(sim, env, self.PUNCH_PAIRS), name="storm-punch")
        reconnected, punched = sim.run_coro(_join([reconnect, punch]))
        sim.run(until=sim.now + self.SETTLE)
        return state + (filled, downed, t_outage, reconnected, punched)

    def collect(self, state) -> Outcome:
        sim, env, lanes, filled, downed, t_outage, reconnected, punched = state
        table = env.table
        ids = np.fromiter((table.lookup(n) for n in downed), dtype=np.int64,
                          count=len(downed))
        latency = (table.last_seen[ids] - t_outage).tolist()
        attempted = self.n_endpoints + len(downed) + self.PUNCH_PAIRS
        failed = ((self.n_endpoints - filled) + (len(downed) - reconnected)
                  + (self.PUNCH_PAIRS - punched))
        reconnect_s = lanes[self.OUTAGE_REGION].done_at - t_outage
        return Outcome(
            attempted=attempted, failed=failed, samples=latency,
            native={"sim_reconnect_s": (reconnect_s, "s")},
            digest=[filled, reconnected, punched, reconnect_s,
                    digest_of(latency), float(sim.now)])


class FluidPoisson:
    """Open-loop Poisson streams of bounded-Pareto flows over 10 host
    pairs on 1 Gb/s access links (20 ms RTT) at 60% of their capacity;
    each flow opens through ``FluidNetwork.open`` when it is due. An op
    is one flow, checked for delivered bytes equal to its size."""

    name = "fluid_poisson"
    LATENCY_NAMES = ("sim_fct_p50_s", "sim_fct_tail_s")
    N_PAIRS = 10
    BANDWIDTH = 1e9
    RTT = 0.020
    ACCESS_LATENCY = 0.0002
    MSS = 1460
    # 4 MiB buffers lift the window cap (1.7 Gb/s at 20 ms) above the
    # link rate, so flows share capacity and every arrival or departure
    # re-rates the flows on its pair.
    BUF = 4 << 20
    RATE = 2000.0      # flow arrivals per simulated second
    HORIZON = 0.5      # simulated seconds of arrivals per stream
    STREAMS = 8
    LOAD = 0.6         # offered goodput over path goodput capacity
    ALPHA = 1.2
    # Sizes are Pareto(alpha) bounded at 100x the minimum: an unbounded
    # alpha=1.2 tail has infinite variance, so one seed's giant flow
    # could decide the rep.
    SPAN = 100.0

    def __init__(self, seed: int, tiny: bool = False) -> None:
        rng = np.random.default_rng([seed, 4])
        # Independent streams per rep: the solver's work follows the
        # number of flows in flight, which wanders slowly under
        # heavy-tailed sizes, so one longer stream would average it out
        # far more slowly than several short ones.
        self.streams = [self._stream(np.random.default_rng(s), 0.05 if tiny else self.HORIZON)
                        for s in _derived_seeds(rng, 1 if tiny else self.STREAMS)]

    def _stream(self, rng: np.random.Generator, horizon: float) -> list:
        """(due time, size in bytes, pair) of every flow of one stream."""
        gaps = rng.exponential(1.0 / self.RATE, size=int(self.RATE * horizon * 2) + 64)
        times = np.cumsum(gaps)
        times = times[times < horizon]
        a, r = self.ALPHA, self.SPAN
        capacity = self.BANDWIDTH * self.MSS / (self.MSS + WIRE_OVERHEAD_TCP)
        mean = self.LOAD * self.N_PAIRS * capacity / 8.0 / self.RATE
        low = mean / (a / (a - 1) * (1 - r ** (1 - a)) / (1 - r ** -a))
        u = rng.random(len(times))
        sizes = low / (1.0 - u * (1.0 - r ** -a)) ** (1.0 / a)
        return list(zip(times.tolist(), np.ceil(sizes).astype(int).tolist(),
                        rng.integers(0, self.N_PAIRS, size=len(times)).tolist()))

    def units(self) -> list:
        return list(self.streams)

    def setup(self, flows):
        sim = Simulator(seed=0)  # the fluid plane draws no random numbers
        cloud = WanCloud(sim, default_latency=self.RTT / 2)
        net = FluidNetwork(sim, refresh_interval=0.0)
        links = {}
        for i in range(self.N_PAIRS):
            for role, ip in (("tx", f"8.7.{i}.1"), ("rx", f"8.7.{i}.2")):
                make_public_host(sim, cloud, f"{role}{i}", ip,
                                 access_latency=self.ACCESS_LATENCY,
                                 access_bandwidth_bps=self.BANDWIDTH,
                                 tcp_mss=self.MSS)
            cloud.set_rtt(f"tx{i}", f"rx{i}", self.RTT - 4 * self.ACCESS_LATENCY)
        for comp in sim.components.find(kind="link").values():
            links[comp.name] = comp
        factor = (self.MSS + WIRE_OVERHEAD_TCP) / self.MSS
        for i in range(self.N_PAIRS):
            path = FluidPath(
                links=((net.link_for(links[f"tx{i}.access"], "ab"), factor),
                       (net.link_for(links[f"rx{i}.access"], "ba"), factor)),
                rtt=self.RTT, mss=self.MSS, sites=(f"tx{i}", f"rx{i}"), cloud=cloud)
            net.add_route(f"tx{i}", f"8.7.{i}.2", path)
        return sim, net, flows

    def measure(self, state) -> tuple:
        sim, net, flows = state
        opened: list = [None] * len(flows)
        done_at = [math.nan] * len(flows)

        def opener(k, size, pair):
            def open_flow():
                flow = net.open(f"tx{pair}", f"8.7.{pair}.2", size_bytes=size,
                                send_buf=self.BUF, recv_buf=self.BUF,
                                ramp=False, name=f"f{k}")
                flow.done.add_callback(lambda _ev: done_at.__setitem__(k, sim.now))
                opened[k] = flow
            return open_flow

        for k, (t, size, pair) in enumerate(flows):
            sim.call_at(t, opener(k, size, pair))
        sim.run()
        return state + (opened, done_at)

    def collect(self, state) -> Outcome:
        sim, net, flows, opened, done_at = state
        fct, failed, delivered = [], 0, 0
        for (t, size, _pair), flow, end in zip(flows, opened, done_at):
            ok = (flow is not None and flow.state == "done"
                  and round(flow.delivered) == size and not math.isnan(end))
            failed += not ok
            if ok:
                fct.append(end - t)
                delivered += size
        span = max(done_at) - flows[0][0] if flows else 0.0
        return Outcome(
            attempted=len(flows), failed=failed, samples=fct,
            native={"sim_goodput_mbps": (delivered * 8 / 1e6 / span if span > 0 else 0.0,
                                         "Mb/s")},
            digest=[len(flows), failed, digest_of(fct)])


WORKLOADS = {cls.name: cls for cls in (TtcpWavnet, ChurnMesh, RegStorm, FluidPoisson)}
