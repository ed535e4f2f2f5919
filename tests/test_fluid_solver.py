"""Max-min fair-share solver: hand-computed allocations + properties.

These tests drive :class:`FluidNetwork.solve_now` directly over
standalone (pipe-less) FluidLinks with ramping disabled, so every
allocation is a pure waterfill answer that can be checked by hand. The
differential test at the end checks the component-local queued solve
against a full ``solve_now()`` on random multi-component graphs.
"""

import math

import pytest

from repro.net.fluid import FluidLink, FluidNetwork, FluidPath
from repro.sim.engine import Simulator

RTT = 0.01
# Big buffers so the window cap (min_buf*8/rtt) sits far above the link
# capacities used here and never binds unless a test wants it to.
BIG = dict(send_buf=1 << 24, recv_buf=1 << 24)


def make_net(**kw):
    sim = Simulator(seed=1)
    return sim, FluidNetwork(sim, refresh_interval=0.0, **kw)


def path_over(*links, rtt=RTT, factor=1.0):
    return FluidPath(links=tuple((l, factor) for l in links), rtt=rtt)


def open_flows(net, paths, **kw):
    flows = [net.open(path=p, size_bytes=None, ramp=False, **{**BIG, **kw})
             for p in paths]
    net.solve_now()
    return flows


def test_single_link_equal_share():
    _sim, net = make_net()
    link = FluidLink("l0", capacity_bps=30e6)
    flows = open_flows(net, [path_over(link)] * 3)
    for f in flows:
        assert f.rate == pytest.approx(10e6)


def test_shared_bottleneck_with_cap():
    """Three flows on a 30 Mbps link, one capped at 4 Mbps by its
    receive window: capped flow gets 4, the others split the rest."""
    sim, net = make_net()
    link = FluidLink("l0", capacity_bps=30e6)
    # window cap = min_buf * 8 / rtt = 4 Mbps
    capped = net.open(path=path_over(link), size_bytes=None, ramp=False,
                      send_buf=5000, recv_buf=5000)
    others = [net.open(path=path_over(link), size_bytes=None, ramp=False,
                       **BIG) for _ in range(2)]
    net.solve_now()
    assert capped.rate == pytest.approx(4e6)
    for f in others:
        assert f.rate == pytest.approx(13e6)


def test_parking_lot():
    """Classic parking lot: one long flow crosses links A-B-C (10 Mbps
    each); each link also carries one local flow. Max-min: every link
    splits 5/5 — the long flow gets 5, each local flow gets 5."""
    _sim, net = make_net()
    links = [FluidLink(f"l{i}", capacity_bps=10e6) for i in range(3)]
    long_flow = path_over(*links)
    locals_ = [path_over(l) for l in links]
    flows = open_flows(net, [long_flow] + locals_)
    for f in flows:
        assert f.rate == pytest.approx(5e6)


def test_parking_lot_asymmetric():
    """Narrow middle link: long flow crosses 10-2-10; locals on the
    edges. Long flow pinned to 2 by the middle; edge locals soak up the
    remaining 8."""
    _sim, net = make_net()
    a = FluidLink("a", capacity_bps=10e6)
    mid = FluidLink("mid", capacity_bps=2e6)
    c = FluidLink("c", capacity_bps=10e6)
    flows = open_flows(net, [path_over(a, mid, c), path_over(a), path_over(c)])
    assert flows[0].rate == pytest.approx(2e6)
    assert flows[1].rate == pytest.approx(8e6)
    assert flows[2].rate == pytest.approx(8e6)


def test_heterogeneous_factors():
    """Overhead-weighted max-min: a flow consuming 2 wire-bits per
    goodput bit and a factor-1 flow share a 30 Mbps link. Progressive
    filling raises goodput together, so the link binds at g*(2+1)=30."""
    _sim, net = make_net()
    link = FluidLink("l0", capacity_bps=30e6)
    heavy = net.open(path=FluidPath(links=((link, 2.0),), rtt=RTT),
                     size_bytes=None, ramp=False, **BIG)
    light = net.open(path=FluidPath(links=((link, 1.0),), rtt=RTT),
                     size_bytes=None, ramp=False, **BIG)
    net.solve_now()
    assert heavy.rate == pytest.approx(10e6)
    assert light.rate == pytest.approx(10e6)
    # Wire accounting: 2*10 + 1*10 = 30 Mbps — the link is exactly full.
    assert heavy.rate * 2 + light.rate == pytest.approx(30e6)


def test_cpu_style_link_caps_goodput():
    """An IPOP-style CPU link (capacity 1 cpu-sec/sec, factor in
    seconds-per-bit) caps goodput at 1/factor regardless of wire room."""
    _sim, net = make_net()
    wire = FluidLink("wire", capacity_bps=100e6)
    cpu = FluidLink("cpu", capacity_bps=1.0, kind="cpu")
    cpu_factor = 575e-6 / (1460 * 8)  # 575 us of CPU per MSS
    flow = net.open(path=FluidPath(links=((wire, 1.0), (cpu, cpu_factor)),
                                   rtt=RTT),
                    size_bytes=None, ramp=False, **BIG)
    net.solve_now()
    assert flow.rate == pytest.approx(1460 * 8 / 575e-6)


def test_rates_track_departures():
    _sim, net = make_net()
    link = FluidLink("l0", capacity_bps=30e6)
    flows = open_flows(net, [path_over(link)] * 3)
    flows[0].close()
    net.solve_now()
    for f in flows[1:]:
        assert f.rate == pytest.approx(15e6)


def test_mathis_cap_engages_on_loss():
    _sim, net = make_net()
    link = FluidLink("l0", capacity_bps=100e6)
    link.loss = 0.01
    flow = net.open(path=path_over(link), size_bytes=None, ramp=False, **BIG)
    net.solve_now()
    expect = 1460 * 8 * 1.22 / (RTT * math.sqrt(0.01))
    assert flow.rate == pytest.approx(expect)


def _allocation_is_feasible(flows, links, util_floor=0.01):
    for link in links:
        used = 0.0
        for f, path in flows:
            for l, factor in path.links:
                if l is link:
                    used += f.rate * factor
        assert used <= link.available(util_floor) * (1 + 1e-6) + 1e-3


def _allocation_is_max_min(flows, links, util_floor=0.01):
    """Every flow is either at its cap or bottlenecked on a saturated
    link where no co-user gets a strictly higher rate — the classic
    max-min optimality certificate."""
    for f, path in flows:
        if f.rate >= f.cap_bps() * (1 - 1e-6):
            continue
        certified = False
        for link, _factor in path.links:
            used = sum(g.rate * fac for g, p in flows
                       for l, fac in p.links if l is link)
            avail = link.available(util_floor)
            if not math.isfinite(avail) or used < avail * (1 - 1e-6):
                continue  # not saturated
            co_rates = [g.rate for g, p in flows
                        if any(l is link for l, _ in p.links)]
            if all(f.rate >= r * (1 - 1e-6) or r <= 0 for r in co_rates):
                certified = True
                break
        assert certified, f"flow {f.name} below cap with no bottleneck"


def test_property_random_topologies():
    """Randomized feasibility + max-min optimality over many topologies
    (seeded RNG: deterministic, no hypothesis dependency needed)."""
    import random

    rng = random.Random(20260808)
    for trial in range(40):
        _sim, net = make_net()
        n_links = rng.randint(1, 6)
        links = [FluidLink(f"l{i}", capacity_bps=rng.uniform(1e6, 100e6))
                 for i in range(n_links)]
        n_flows = rng.randint(1, 12)
        flows = []
        for j in range(n_flows):
            k = rng.randint(1, n_links)
            chosen = rng.sample(links, k)
            factor = rng.choice([1.0, 1.04, 1.2, 2.0])
            path = FluidPath(links=tuple((l, factor) for l in chosen),
                             rtt=rng.choice([0.001, 0.01, 0.1]))
            buf = rng.choice([4096, 65536, 1 << 22])
            flows.append((net.open(path=path, size_bytes=None, ramp=False,
                                   send_buf=buf, recv_buf=buf), path))
        net.solve_now()
        _allocation_is_feasible(flows, links)
        _allocation_is_max_min(flows, links)


def test_property_with_hypothesis():
    """Same properties under hypothesis, when available."""
    hyp = pytest.importorskip("hypothesis")
    st = pytest.importorskip("hypothesis.strategies")

    @hyp.given(
        caps=st.lists(st.floats(1e5, 1e9), min_size=1, max_size=4),
        flow_links=st.lists(st.lists(st.integers(0, 3), min_size=1,
                                     max_size=4),
                            min_size=1, max_size=8),
    )
    @hyp.settings(max_examples=60, deadline=None)
    def run(caps, flow_links):
        _sim, net = make_net()
        links = [FluidLink(f"l{i}", capacity_bps=c)
                 for i, c in enumerate(caps)]
        flows = []
        for idxs in flow_links:
            chosen = list({links[i % len(links)] for i in idxs})
            path = FluidPath(links=tuple((l, 1.0) for l in chosen), rtt=0.01)
            flows.append((net.open(path=path, size_bytes=None, ramp=False,
                                   **BIG), path))
        net.solve_now()
        _allocation_is_feasible(flows, links)
        _allocation_is_max_min(flows, links)

    run()


def test_initial_window_flow_leaves_no_timer():
    """A flow that fits in its initial window completes at open; its
    slow-start ramp timer must not keep doubling and re-solving."""
    sim = Simulator(seed=1)
    net = FluidNetwork(sim)
    link = FluidLink("l0", capacity_bps=1e9)
    flow = net.open(path=FluidPath(links=((link, 1.0),), rtt=0.05),
                    size_bytes=4000)
    assert flow.state == "done"
    assert flow._ramp_timer is None and flow._done_timer is None
    sim.run()
    assert flow.done.ok
    assert sim.metrics.value("fluid.solves") <= 1
    assert not link.users and not net.flows


# ----------------------------------------------------------------------
# Component-local re-solve vs a full solve
# ----------------------------------------------------------------------
class _SteadyPipe:
    """Pipe stand-in carrying a constant-rate packet stream: bytes_sent
    grows linearly with sim time, so every sampling window measures the
    same packet utilization whichever solve takes the sample."""

    def __init__(self, sim, bandwidth_bps, util_bps):
        self.sim = sim
        self.bandwidth_bps = bandwidth_bps
        self.util_bps = util_bps
        self.up = True
        self.loss = 0.0

    @property
    def bytes_sent(self):
        return self.util_bps * self.sim.now / 8.0


class _SteadyLink:
    """Two steady pipes with the ``Link`` watcher surface the fluid
    plane subscribes to (``link_for`` / ``add_watcher``)."""

    def __init__(self, sim, name, bandwidth_bps, util_bps):
        self.name = name
        self.ab = _SteadyPipe(sim, bandwidth_bps, util_bps)
        self.ba = _SteadyPipe(sim, bandwidth_bps, util_bps)
        self._watchers = []

    def add_watcher(self, fn):
        self._watchers.append(fn)

    def change(self, **attrs):
        for pipe in (self.ab, self.ba):
            for key, value in attrs.items():
                setattr(pipe, key, value)
        for fn in self._watchers:
            fn(self)


def _random_groups(rng, sim, net):
    """Disjoint link groups: unbound links (wire and CPU-style) plus
    pipe-bound links carrying steady packet traffic."""
    groups, steady = [], []
    for g in range(rng.randint(2, 5)):
        links = []
        for i in range(rng.randint(1, 4)):
            kind = rng.random()
            if kind < 0.4:
                bw = rng.uniform(5e6, 100e6)
                l2 = _SteadyLink(sim, f"g{g}.p{i}", bw, bw * rng.uniform(0.0, 0.6))
                steady.append(l2)
                links.append((net.link_for(l2, rng.choice(("ab", "ba"))),
                              rng.choice([1.0, 1.04, 1.074])))
            elif kind < 0.5:
                cpu = FluidLink(f"g{g}.cpu{i}", capacity_bps=1.0, kind="cpu")
                links.append((cpu, rng.uniform(200e-6, 900e-6) / (1460 * 8)))
            else:
                cap = rng.choice([None, rng.uniform(1e6, 100e6)])
                links.append((FluidLink(f"g{g}.l{i}", capacity_bps=cap),
                              rng.choice([1.0, 1.2, 2.0])))
        groups.append(links)
    return groups, steady


def test_component_local_matches_full_solve():
    """Differential check: after every queued (component-local) solve,
    each flow's rate equals what a fresh full ``solve_now()`` assigns,
    across random multi-component graphs under opens, closes, link
    changes and time advances (ramp steps, completions)."""
    import random

    rng = random.Random(20261017)
    local_solves = 0
    for trial in range(12):
        sim = Simulator(seed=trial)
        net = FluidNetwork(sim, refresh_interval=0.0)
        groups, steady = _random_groups(rng, sim, net)
        # Start past the first sampling window, so every solve measures
        # the steady packet load and rates depend on the graph alone.
        sim.run(until=1.0)
        take = net._take_closure

        def spy(_take=take, _net=net):
            nonlocal local_solves
            flows, links = _take()
            local_solves += len(flows) < len(_net.flows)
            return flows, links

        net._take_closure = spy

        def check():
            rates = {flow: flow._new_rate if flow.state == "active" else 0.0
                     for flow in net.flows}
            net.solve_now()
            for flow, rate in rates.items():
                want = flow._new_rate if flow.state == "active" else 0.0
                assert rate == pytest.approx(want, rel=1e-9, abs=1e-6), \
                    (trial, flow.name)

        for _step in range(60):
            op = rng.random()
            if op < 0.45 or not net.flows:
                links = groups[rng.randrange(len(groups))]
                chosen = rng.sample(links, rng.randint(1, len(links)))
                buf = rng.choice([4096, 65536, 1 << 22])
                net.open(path=FluidPath(links=tuple(chosen),
                                        rtt=rng.choice([0.002, 0.01, 0.05])),
                         size_bytes=rng.choice([None, 20_000, 400_000, 4_000_000]),
                         ramp=rng.random() < 0.5, send_buf=buf, recv_buf=buf)
            elif op < 0.6:
                rng.choice(list(net.flows)).close()
            elif op < 0.7 and steady:
                link = rng.choice(steady)
                change = rng.random()
                if change < 0.4:
                    link.change(bandwidth_bps=rng.uniform(5e6, 100e6))
                elif change < 0.7:
                    link.change(loss=rng.choice([0.0, 0.0, 1e-3]))
                else:
                    link.change(up=not link.ab.up)
            else:
                horizon = sim.now + rng.uniform(1e-3, 0.2)
                while sim.peek() <= horizon:
                    sim.step()
                    if not net._solve_scheduled:
                        check()
                sim.run(until=horizon)
            sim.run(until=sim.now)  # let the queued solve fire
            check()
    # The graphs really split: some queued solves covered a strict subset.
    assert local_solves > 0
