"""Fluid (flow-level) data plane: max-min bandwidth sharing for bulk traffic.

The packet plane simulates every frame of every flow; a 32 MB ttcp run
is ~10^5 calendar events. For the paper's bulk-transfer experiments
(fig06/fig07 ttcp, table4 HTTP, fig08 scale-out) the *steady-state
throughput* is fully determined by bottleneck sharing, so this module
models a bulk transfer as one :class:`FluidFlow` whose rate comes from a
max-min fair-share solver (progressive filling) over the capacity graph.
The simulator then schedules only *rate-change* events: flow arrival,
flow departure, a slow-start ramp step, a capacity/fault change, and one
completion timer per flow.

The plane is **hybrid**: the control plane (punching, pulses,
keepalives, rendezvous RPC) and any flow opened with
``fidelity="packet"`` stay on the packet path. Fluid and packet traffic
coexist on shared links by the capacity-sharing rule: the fluid-visible
capacity of a link is its configured bandwidth minus the packet path's
*measured* utilization (sampled from ``_Pipe.bytes_sent`` whenever a
solve covers the link's component, and on every link at a periodic
refresh tick while flows are active).

Model elements
--------------

* :class:`FluidLink` — one direction of capacity. Usually bound to a
  packet-plane ``_Pipe`` (so reshaping, ``admin_down`` and loss changes
  flow straight through); unbound links model non-wire resources such as
  the IPOP user-level stack CPU (capacity 1.0 cpu-second/second).
* :class:`FluidPath` — the ordered ``(link, factor)`` list one flow
  direction consumes, plus the path RTT, the WAN-cloud site pair (for
  partition checks) and the WAV tunnel conduits it rides. ``factor`` is
  resource units consumed per goodput bit/s — wire links use
  ``wire_bytes_per_mss / mss`` (header + encapsulation overhead), CPU
  links use ``cpu_seconds_per_mss / (mss * 8)``.
* :class:`FluidFlow` — one bulk transfer. Its instantaneous cap is
  ``min(window/RTT, cc.rate_cap(loss), ramp)`` where the loss response
  comes from the congestion-control plane (:mod:`repro.net.cc`;
  ``cc=None`` keeps the historical Reno/Mathis curve); the ramp models
  TCP slow
  start (initial window delivered at once, then the rate cap doubles
  each RTT until it clears the window cap), which is what makes short
  and mid-size transfers agree with the packet plane, not just t→∞.
* :class:`FluidNetwork` — per-simulator registry + solver. Re-solves are
  **component-local**: a flow arrival, departure, ramp step or early
  completion-timer fire marks that flow's links dirty; a link, cloud or
  conduit change, a refresh tick or a direct :meth:`FluidNetwork.solve_now`
  call marks every link dirty. One solve per timestamp then re-waterfills
  only the flows reachable from the dirty links through shared links
  (max-min shares never cross a component boundary), in open order, so
  10^4 flow arrivals at one instant still cost one waterfill pass.

Faults: ``link_flap``/``admin_down`` zero the link's capacity,
``loss_burst`` engages the Mathis cap, and WAN partitions stall every
flow whose site pair is cut — all through the same watcher hooks the
fault injector already drives. Stalled flows hold their delivered byte
count and resume when the path heals; ``stall_timeout`` aborts them
instead (``flow.done`` fails with :class:`FluidAborted`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Optional

from repro.net.cc import (INITIAL_CWND_SEGMENTS, cc_class, mathis_rate_bps,
                          window_rate_bps)
from repro.sim.engine import Event, Simulator

__all__ = ["FluidAborted", "FluidFlow", "FluidLink", "FluidNetwork",
           "FluidPath"]

_EPS = 1e-9
_SEQ = attrgetter("_seq")   # flow open order: the solver's iteration order


class FluidAborted(Exception):
    """A fluid flow was aborted (fault, stall timeout, or explicit)."""


class FluidLink:
    """One direction of capacity in the fluid graph.

    ``pipe`` binds the link to a packet-plane ``_Pipe``: capacity,
    admin state and loss are read from the pipe at every solve, and the
    pipe's ``bytes_sent`` counter feeds the hybrid utilization
    subtraction. Unbound links (``pipe=None``) carry their own fields —
    used by solver unit tests and by non-wire resources (CPU)."""

    __slots__ = ("name", "kind", "capacity_bps", "pipe", "up", "loss",
                 "_pkt_bytes", "_pkt_at", "pkt_util_bps", "users")

    def __init__(self, name: str, capacity_bps: Optional[float] = None,
                 pipe=None, kind: str = "wire") -> None:
        self.name = name
        self.kind = kind
        self.capacity_bps = capacity_bps
        self.pipe = pipe
        self.up = True
        self.loss = 0.0
        self._pkt_bytes = 0 if pipe is None else pipe.bytes_sent
        self._pkt_at = 0.0
        self.pkt_util_bps = 0.0
        self.users: dict = {}   # open flows riding this link, in open order

    def capacity(self) -> float:
        """Raw capacity in resource units/s (bits/s for wire links)."""
        if self.pipe is not None:
            if not self.pipe.up:
                return 0.0
            bw = self.pipe.bandwidth_bps
            return math.inf if bw is None else float(bw)
        if not self.up:
            return 0.0
        return math.inf if self.capacity_bps is None else float(self.capacity_bps)

    def current_loss(self) -> float:
        return float(self.pipe.loss) if self.pipe is not None else self.loss

    def sample_packet_util(self, now: float, min_window: float = 1e-3) -> None:
        """Refresh the measured packet-path utilization (windowed mean
        over the interval since the previous sample)."""
        if self.pipe is None:
            return
        dt = now - self._pkt_at
        if dt < min_window:
            return
        sent = self.pipe.bytes_sent
        self.pkt_util_bps = (sent - self._pkt_bytes) * 8.0 / dt
        self._pkt_bytes = sent
        self._pkt_at = now

    def available(self, util_floor: float) -> float:
        """Fluid-visible capacity: raw capacity minus measured packet
        utilization, floored at ``util_floor`` of raw capacity so fluid
        flows are never fully starved by packet bursts."""
        cap = self.capacity()
        if cap == 0.0 or not math.isfinite(cap):
            return cap
        return max(cap - self.pkt_util_bps, cap * util_floor)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"FluidLink({self.name}, cap={self.capacity():.3g})"


@dataclass(frozen=True)
class FluidPath:
    """One direction of a route through the fluid capacity graph."""

    links: tuple  # of (FluidLink, factor) pairs
    rtt: float
    mss: int = 1460
    sites: Optional[tuple] = None     # (src_site, dst_site) on `cloud`
    cloud: object = None              # WanCloud carrying `sites`
    conduits: tuple = ()              # WAV tunnel keys gating the path

    def blocked(self, net: "FluidNetwork") -> Optional[str]:
        """Why this path cannot carry traffic right now (None if it can)."""
        for link, _factor in self.links:
            if link.capacity() == 0.0:
                return f"link_down:{link.name}"
        if self.cloud is not None and self.sites is not None:
            if self.cloud.partitioned(*self.sites):
                return "partitioned"
        for key in self.conduits:
            if not net.conduit_up(key):
                return f"tunnel_down:{key[0]}-{key[1]}"
        return None

    def loss(self) -> float:
        """Combined i.i.d. frame loss probability along the path."""
        keep = 1.0
        for link, _factor in self.links:
            keep *= 1.0 - link.current_loss()
        return 1.0 - keep


class FluidFlow:
    """One bulk transfer on the fluid plane.

    ``size_bytes=None`` makes a duration-mode flow (netperf style): it
    runs until :meth:`close` and reports ``delivered``. Otherwise the
    flow completes when ``delivered`` reaches ``size_bytes`` and
    ``done`` succeeds ``deliver_offset`` seconds later (last-byte
    propagation to the receiver)."""

    __slots__ = ("net", "name", "path", "size_bytes", "delivered", "rate",
                 "window_bps", "mss", "state", "done", "opened_at",
                 "deliver_offset", "cc", "_rate_cap", "_last_t", "_cap_ramp",
                 "_ramp_timer", "_done_timer", "_done_eta", "_stall_timer",
                 "_new_rate", "_seq")

    def __init__(self, net: "FluidNetwork", name: str, path: FluidPath,
                 size_bytes: Optional[int], window_bps: float,
                 ramp: bool, deliver_offset: float,
                 cc: Optional[str] = None) -> None:
        sim = net.sim
        self.net = net
        self.name = name
        self.path = path
        self.size_bytes = size_bytes
        self.delivered = 0.0
        self.rate = 0.0            # allocated goodput, bits/s
        self.window_bps = window_bps
        self.mss = path.mss
        self.state = "active"
        # cc=None keeps the plane's historical Reno/Mathis loss response
        # (the calibrated default every agreement gate was tuned on);
        # naming an algorithm swaps in its steady-state response curve.
        self.cc = cc
        self._rate_cap = (mathis_rate_bps if cc is None
                          else cc_class(cc).rate_cap)
        self.done: Event = Event(sim)
        self.opened_at = sim.now
        self.deliver_offset = deliver_offset
        self._last_t = sim.now
        self._ramp_timer = None
        self._done_timer = None
        self._done_eta = math.inf
        self._stall_timer = None
        self._new_rate = 0.0
        self._seq = net._flow_seq
        # Slow start: the initial window goes out as one burst (delivered
        # "instantly" on the fluid clock; propagation is deliver_offset),
        # then the rate cap doubles each RTT starting from 2*IW/RTT.
        iw = INITIAL_CWND_SEGMENTS * self.mss
        if ramp and window_bps > 2 * iw * 8.0 / path.rtt:
            self.delivered = float(min(iw, size_bytes)) if size_bytes is not None else float(iw)
            self._cap_ramp = 2 * iw * 8.0 / path.rtt
            self._ramp_timer = sim.timer(path.rtt, self._ramp_step)
        else:
            self._cap_ramp = math.inf

    # -- caps -----------------------------------------------------------
    def cap_bps(self) -> float:
        cap = min(self.window_bps, self._cap_ramp)
        loss = self.path.loss()
        if loss > 0.0:
            cap = min(cap, self._rate_cap(self.mss, self.path.rtt, loss))
        return cap

    def _ramp_step(self) -> None:
        self._cap_ramp *= 2.0
        if self._cap_ramp >= self.window_bps:
            self._cap_ramp = math.inf  # window cap takes over
            self._ramp_timer = None
        else:
            self._ramp_timer = self.net.sim.timer(self.path.rtt, self._ramp_step)
        self.net._schedule_solve(self)

    # -- progress -------------------------------------------------------
    def progress(self) -> float:
        """Delivered bytes as of now (read-only; does not settle)."""
        if self.state != "active":
            return self.delivered
        return self.delivered + self.rate * (self.net.sim.now - self._last_t) / 8.0

    def _settle(self, now: float) -> None:
        if self.state == "active" and now > self._last_t:
            self.delivered += self.rate * (now - self._last_t) / 8.0
        self._last_t = now

    def remaining(self) -> float:
        if self.size_bytes is None:
            return math.inf
        return max(self.size_bytes - self.delivered, 0.0)

    # -- lifecycle ------------------------------------------------------
    def close(self) -> None:
        """Finish a duration-mode flow (or cut a sized flow short)."""
        if self.state in ("done", "aborted"):
            return
        self.net._finish(self, aborted=False)

    def abort(self, reason: str = "aborted") -> None:
        if self.state in ("done", "aborted"):
            return
        self.net._finish(self, aborted=True, reason=reason)

    def _cancel_timers(self) -> None:
        for timer in (self._ramp_timer, self._done_timer, self._stall_timer):
            if timer is not None:
                timer.cancel()
        self._ramp_timer = self._done_timer = self._stall_timer = None
        self._done_eta = math.inf

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (f"FluidFlow({self.name}, {self.state}, "
                f"rate={self.rate / 1e6:.2f}Mbps, "
                f"delivered={self.delivered:.0f}B)")


class FluidNetwork:
    """Per-simulator fluid plane: capacity graph, routes, solver.

    Registers itself as ``sim.fluid`` so apps and the WAVNet driver can
    find it without plumbing. Construction is cheap; nothing runs until
    the first flow opens."""

    def __init__(self, sim: Simulator, refresh_interval: float = 0.5,
                 util_floor: float = 0.01,
                 stall_timeout: Optional[float] = None) -> None:
        if getattr(sim, "fluid", None) is not None:
            raise RuntimeError("simulator already has a fluid network")
        self.sim = sim
        sim.fluid = self
        self.refresh_interval = refresh_interval
        self.util_floor = util_floor
        self.stall_timeout = stall_timeout
        self.flows: dict[FluidFlow, None] = {}   # active + stalled, open order
        self._links: dict[int, FluidLink] = {}   # id(pipe) -> FluidLink
        self._routes: dict[tuple, FluidPath] = {}
        self._conduits: dict[tuple, bool] = {}
        self._watched_links: set[int] = set()
        self._watched_clouds: set[int] = set()
        self._solve_scheduled = False
        self._dirty: Optional[dict] = {}   # links to re-solve; None = all
        self._batched = False              # solve_now runs the queued solve
        self._refresh_timer = None
        self._flow_seq = 0
        m = sim.metrics.scope("fluid")
        self._m_opened = m.counter("flows.opened")
        self._m_completed = m.counter("flows.completed")
        self._m_aborted = m.counter("flows.aborted")
        self._m_stalls = m.counter("flows.stalls")
        self._m_active = m.gauge("flows.active")
        self._m_solves = m.counter("solves")
        self._m_rate_changes = m.counter("rate_changes")
        self._m_bytes = m.counter("bytes.delivered")

    # ------------------------------------------------------------------
    # Capacity graph construction
    # ------------------------------------------------------------------
    def link_for(self, link, direction: str = "ab") -> FluidLink:
        """The FluidLink bound to one direction of a packet-plane
        :class:`~repro.net.l2.Link` (cached; subscribes to the link's
        change notifications on first use)."""
        pipe = link.ab if direction == "ab" else link.ba
        cached = self._links.get(id(pipe))
        if cached is not None:
            return cached
        flink = FluidLink(f"{link.name}.{direction}", pipe=pipe)
        self._links[id(pipe)] = flink
        if id(link) not in self._watched_links:
            link.add_watcher(self._on_link_change)
            self._watched_links.add(id(link))
        return flink

    def watch_cloud(self, cloud) -> None:
        """Subscribe to a WAN cloud's partition/heal notifications."""
        if id(cloud) not in self._watched_clouds:
            cloud.add_watcher(self._on_cloud_change)
            self._watched_clouds.add(id(cloud))

    def add_route(self, src: str, dst_ip, path: FluidPath) -> None:
        """Register the path a flow from host ``src`` to ``dst_ip``
        rides (apps resolve routes by ``(host.name, str(dst_ip))``)."""
        if path.cloud is not None:
            self.watch_cloud(path.cloud)
        self._routes[(src, str(dst_ip))] = path

    def route(self, src: str, dst_ip) -> FluidPath:
        try:
            return self._routes[(src, str(dst_ip))]
        except KeyError:
            raise KeyError(f"no fluid route {src} -> {dst_ip}; "
                           "register one with add_route()/fluidify()")

    def path_rate(self, path: FluidPath) -> float:
        """Steady goodput estimate for a lone flow on ``path``: the
        bottleneck link's fluid-visible capacity over its consumption
        factor. Apps use this to decide when TCP ramp-up would already
        saturate the path (e.g. sizing slow-start latency)."""
        rate = math.inf
        for link, factor in path.links:
            rate = min(rate, link.available(self.util_floor) / factor)
        return rate

    # -- WAV tunnel conduits -------------------------------------------
    @staticmethod
    def conduit_key(a: str, b: str) -> tuple:
        return tuple(sorted((a, b)))

    def set_conduit(self, key: tuple, up: bool) -> None:
        """Driver hook: a WAV tunnel between the key's two endpoints
        came up / died. Flows riding it stall or resume accordingly."""
        key = self.conduit_key(*key)
        if self._conduits.get(key) == up:
            return
        self._conduits[key] = up
        self._schedule_solve()

    def conduit_up(self, key: tuple) -> bool:
        return self._conduits.get(key, True)

    # ------------------------------------------------------------------
    # Flow lifecycle
    # ------------------------------------------------------------------
    def open(self, src: Optional[str] = None, dst_ip=None, *,
             path: Optional[FluidPath] = None,
             size_bytes: Optional[int] = None,
             send_buf: int = 262144, recv_buf: int = 262144,
             ramp: bool = True, name: Optional[str] = None,
             deliver_offset: Optional[float] = None,
             cc: Optional[str] = None) -> FluidFlow:
        """Open a fluid bulk transfer and (re)solve the share allocation.

        Returns the :class:`FluidFlow`; wait on ``flow.done`` for
        completion (sized flows) or :meth:`FluidFlow.close` it
        (duration mode)."""
        if path is None:
            path = self.route(src, dst_ip)
        if name is None:
            name = f"flow{self._flow_seq}"
        window = window_rate_bps(send_buf, recv_buf, path.rtt)
        offset = path.rtt / 2.0 if deliver_offset is None else deliver_offset
        flow = FluidFlow(self, name, path, size_bytes, window, ramp, offset,
                         cc=cc)
        self._flow_seq += 1
        self._m_opened.add()
        self.sim.trace.event("fluid.open", flow=name,
                             size=size_bytes if size_bytes is not None else -1)
        if size_bytes is not None and flow.delivered >= size_bytes:
            # Fits in the initial window: delivered in one burst.
            self._complete_now(flow)
            return flow
        self.flows[flow] = None
        for link, _factor in path.links:
            link.users[flow] = None
        self._m_active.set(len(self.flows))
        self._schedule_solve(flow)
        if self._refresh_timer is None and self.refresh_interval:
            self._refresh_timer = self.sim.timer(self.refresh_interval,
                                                 self._refresh_tick)
        return flow

    def _finish(self, flow: FluidFlow, aborted: bool, reason: str = "") -> None:
        flow._settle(self.sim.now)
        flow._cancel_timers()
        if flow in self.flows:
            del self.flows[flow]
            for link, _factor in flow.path.links:
                link.users.pop(flow, None)
        self._m_active.set(len(self.flows))
        self._m_bytes.add(flow.delivered)
        if aborted:
            flow.state = "aborted"
            self._m_aborted.add()
            self.sim.trace.event("fluid.abort", flow=flow.name, reason=reason,
                                 delivered=round(flow.delivered))
            exc = FluidAborted(f"{flow.name}: {reason}")
            flow.done.fail(exc)
            flow.done.defuse()  # waiters still see it; unwaited aborts don't crash
        else:
            flow.state = "done"
            self._m_completed.add()
            self.sim.trace.event("fluid.complete", flow=flow.name,
                                 delivered=round(flow.delivered),
                                 seconds=round(self.sim.now - flow.opened_at, 6))
            if flow.deliver_offset > 0:
                self.sim.call_in(flow.deliver_offset, _DoneSucceed(flow))
            else:
                flow.done.succeed(flow)
        self._schedule_solve(flow)

    def _complete_now(self, flow: FluidFlow) -> None:
        flow._cancel_timers()
        flow.state = "done"
        self._m_completed.add()
        self._m_bytes.add(flow.delivered)
        self.sim.trace.event("fluid.complete", flow=flow.name,
                             delivered=round(flow.delivered), seconds=0.0)
        if flow.deliver_offset > 0:
            self.sim.call_in(flow.deliver_offset, _DoneSucceed(flow))
        else:
            flow.done.succeed(flow)

    # ------------------------------------------------------------------
    # Re-solve triggers
    # ------------------------------------------------------------------
    def _on_link_change(self, _link) -> None:
        self._schedule_solve()

    def _on_cloud_change(self, _cloud) -> None:
        self._schedule_solve()

    def _schedule_solve(self, flow: Optional[FluidFlow] = None) -> None:
        """Mark ``flow``'s links dirty (every link when ``flow`` is None)
        and queue one fast-lane event: any number of triggers at the same
        timestamp collapse into a single waterfill pass."""
        if flow is None:
            self._dirty = None
        elif self._dirty is not None:
            for link, _factor in flow.path.links:
                self._dirty[link] = None
        if not self._solve_scheduled:
            self._solve_scheduled = True
            self.sim.call_in(0.0, self._solve_cb)

    def _solve_cb(self) -> None:
        if self._solve_scheduled:
            self._batched = True
            self.solve_now()

    def _refresh_tick(self) -> None:
        self._refresh_timer = None
        if not self.flows:
            return
        # Periodic hybrid refresh: re-sample packet utilization so long
        # fluid flows track packet traffic that starts or stops mid-run.
        self.solve_now()
        self._refresh_timer = self.sim.timer(self.refresh_interval,
                                             self._refresh_tick)

    # ------------------------------------------------------------------
    # The solver
    # ------------------------------------------------------------------
    def _take_closure(self) -> tuple[list, dict]:
        """Consume the dirty set: every flow reachable from a dirty link
        through shared links (in open order), plus the links they and
        the dirty set touch. A dirty set of None means every link."""
        links = self._dirty
        self._dirty = {}
        if links is None:
            links = dict.fromkeys(self._links.values())
            for flow in self.flows:
                for link, _factor in flow.path.links:
                    links[link] = None
        flows: dict[FluidFlow, None] = {}
        stack = list(links)
        while stack:
            for flow in stack.pop().users:
                if flow not in flows:
                    flows[flow] = None
                    for link, _factor in flow.path.links:
                        if link not in links:
                            links[link] = None
                            stack.append(link)
        return sorted(flows, key=_SEQ), links

    def solve_now(self) -> None:
        """Settle progress, re-check path health, waterfill, re-arm
        completion timers — for the flows sharing a link, directly or
        transitively, with a dirty link. Called directly (not as the
        queued solve), it marks every link dirty first. Deterministic:
        flows go in open order."""
        if not self._batched:
            self._dirty = None
        self._batched = self._solve_scheduled = False
        now = self.sim.now
        self._m_solves.add()
        flows, links = self._take_closure()
        for flow in flows:
            flow._settle(now)

        # Stall / resume on path health.
        active: list[FluidFlow] = []
        for flow in flows:
            why = flow.path.blocked(self)
            if why is not None:
                if flow.state == "active":
                    flow.state = "stalled"
                    flow.rate = 0.0
                    self._m_stalls.add()
                    self.sim.trace.event("fluid.stall", flow=flow.name,
                                         reason=why)
                    if flow._done_timer is not None:
                        flow._done_timer.cancel()
                        flow._done_timer = None
                        flow._done_eta = math.inf
                    if self.stall_timeout is not None and flow._stall_timer is None:
                        flow._stall_timer = self.sim.timer(
                            self.stall_timeout, _StallAbort(flow))
            else:
                if flow.state == "stalled":
                    flow.state = "active"
                    self.sim.trace.event("fluid.resume", flow=flow.name)
                    if flow._stall_timer is not None:
                        flow._stall_timer.cancel()
                        flow._stall_timer = None
                active.append(flow)

        if active:
            for link in links:
                link.sample_packet_util(now)
            self._waterfill(active)

        # Apply rates and (re)arm completion timers.
        for flow in active:
            new = flow._new_rate
            if abs(new - flow.rate) > max(1e-6, 1e-9 * new):
                flow.rate = new
                self._m_rate_changes.add()
            if flow.size_bytes is None:
                continue
            eta = (now + flow.remaining() * 8.0 / flow.rate
                   if flow.rate > 0 else math.inf)
            # Re-arm only when the new ETA is *earlier* than the armed
            # one (a later ETA just means the timer fires early, finds
            # bytes remaining, and re-arms itself — see _flow_eta_fire).
            if eta < flow._done_eta - 1e-9:
                if flow._done_timer is not None:
                    flow._done_timer.cancel()
                flow._done_eta = eta
                flow._done_timer = self.sim.timer(eta - now,
                                                  _EtaFire(flow))
            elif flow._done_timer is None and eta < math.inf:
                flow._done_eta = eta
                flow._done_timer = self.sim.timer(eta - now, _EtaFire(flow))

    def _eta_fire(self, flow: FluidFlow) -> None:
        flow._done_timer = None
        flow._done_eta = math.inf
        flow._settle(self.sim.now)
        if flow.remaining() <= max(1.0, _EPS * (flow.size_bytes or 1)):
            flow.delivered = float(flow.size_bytes)
            self._finish(flow, aborted=False)
        else:
            # Rate dropped since this timer was armed; re-estimate.
            self._schedule_solve(flow)

    def _waterfill(self, active: list[FluidFlow]) -> None:
        """Progressive filling: raise every unfrozen flow's goodput rate
        together; freeze flows at their cap and flows on saturated
        links; repeat. Heterogeneous per-(flow, link) consumption
        factors (header overhead, CPU seconds) are respected, so this is
        weighted max-min in goodput space."""
        # Gather the links in deterministic (registration-ish) order.
        entries: list[list] = []   # per link: [rem, sat_eps, [(idx, factor)...]]
        link_index: dict[int, int] = {}
        caps: list[float] = []
        rates: list[float] = []
        frozen: list[bool] = []
        for idx, flow in enumerate(active):
            caps.append(flow.cap_bps())
            rates.append(0.0)
            frozen.append(False)
            for link, factor in flow.path.links:
                li = link_index.get(id(link))
                if li is None:
                    li = len(entries)
                    link_index[id(link)] = li
                    avail = link.available(self.util_floor)
                    sat_eps = max(1e-6, avail * 1e-9) if math.isfinite(avail) else 0.0
                    entries.append([avail, sat_eps, []])
                entries[li][2].append((idx, factor))
        n_unfrozen = len(active)
        guard = 0
        while n_unfrozen > 0:
            guard += 1
            if guard > 2 * (len(active) + len(entries)) + 4:  # pragma: no cover
                break  # numerical safety; freeze everything as-is
            inc = math.inf
            for rem, _sat_eps, users in entries:
                weight = 0.0
                for idx, factor in users:
                    if not frozen[idx]:
                        weight += factor
                if weight > 0.0:
                    share = rem / weight
                    if share < inc:
                        inc = share
            for idx in range(len(active)):
                if not frozen[idx]:
                    room = caps[idx] - rates[idx]
                    if room < inc:
                        inc = room
            if inc == math.inf:
                break  # no finite constraint (all caps infinite, links unshaped)
            if inc > 0.0:
                for entry in entries:
                    weight = 0.0
                    for idx, factor in entry[2]:
                        if not frozen[idx]:
                            weight += factor
                    entry[0] -= inc * weight
                for idx in range(len(active)):
                    if not frozen[idx]:
                        rates[idx] += inc
            # Freeze cap-limited flows.
            progressed = False
            for idx in range(len(active)):
                if not frozen[idx] and rates[idx] >= caps[idx] - max(1e-6, caps[idx] * 1e-12):
                    frozen[idx] = True
                    n_unfrozen -= 1
                    progressed = True
            # Freeze flows on saturated links.
            for rem, sat_eps, users in entries:
                if rem <= sat_eps:
                    for idx, _factor in users:
                        if not frozen[idx]:
                            frozen[idx] = True
                            n_unfrozen -= 1
                            progressed = True
            if not progressed and inc <= 0.0:  # pragma: no cover
                break
        for idx, flow in enumerate(active):
            flow._new_rate = rates[idx]


class _DoneSucceed:
    """Bound completion-event trigger (avoids closure churn)."""

    __slots__ = ("flow",)

    def __init__(self, flow: FluidFlow) -> None:
        self.flow = flow

    def __call__(self) -> None:
        self.flow.done.succeed(self.flow)


class _EtaFire:
    __slots__ = ("flow",)

    def __init__(self, flow: FluidFlow) -> None:
        self.flow = flow

    def __call__(self) -> None:
        self.flow.net._eta_fire(self.flow)


class _StallAbort:
    __slots__ = ("flow",)

    def __init__(self, flow: FluidFlow) -> None:
        self.flow = flow

    def __call__(self) -> None:
        flow = self.flow
        flow._stall_timer = None
        if flow.state == "stalled":
            flow.abort("stall_timeout")
