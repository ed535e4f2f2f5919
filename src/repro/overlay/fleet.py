"""Load-balanced rendezvous fleet: consistent-hash endpoint assignment.

The paper runs a handful of rendezvous servers with clients statically
pointed at one of them. At 10^5-10^6 endpoints the assignment itself
becomes a control-plane concern: endpoints must spread across N servers,
an endpoint must map to the *same* server across reconnects (so its
directory row keeps one owner), and a server crash must only remap the
endpoints it owned.

:class:`RendezvousFleet` implements the standard consistent-hash ring
(crc32 of ``server-name#vnode``, ~64 virtual nodes per server) over a
set of :class:`~repro.overlay.rendezvous.RendezvousServer` instances
that share one :class:`~repro.core.hoststate.HostTable`. ``assign``
skips servers that are not RUNNING, so a regional outage automatically
drains to the survivors — and the mass reconnect that follows is exactly
the registration-storm scenario.

Load metrics are published under ``rvz.fleet.*`` so sweeps can plot
per-server control-plane load.
"""

from __future__ import annotations

import bisect
from zlib import crc32

__all__ = ["HashRing", "RendezvousFleet"]

VNODES = 64


class HashRing:
    """The consistent-hash ring itself, built from server *names* only.

    This is the static, driver-side view of the fleet assignment: it
    needs no live server objects, so endpoint code and storm lanes can
    compute the same primary/backup ordering the fleet would, before
    any server is up or after one has crashed. :class:`RendezvousFleet`
    builds its ring through this class, so the two can never disagree
    on hashing.
    """

    def __init__(self, names: list[str], vnodes: int = VNODES) -> None:
        if not names:
            raise ValueError("ring needs at least one server name")
        self.names = list(names)
        self._ring: list[tuple[int, int]] = []  # (hash, server_index)
        for idx, name in enumerate(self.names):
            for v in range(vnodes):
                self._ring.append((crc32(f"{name}#{v}".encode()), idx))
        self._ring.sort()
        self._keys = [h for h, _ in self._ring]

    def index(self, name: str) -> int:
        """Primary server index for ``name``: the first ring vnode
        clockwise of the name's hash."""
        h = crc32(name.encode())
        return self._ring[bisect.bisect_right(self._keys, h)
                          % len(self._ring)][1]

    def order(self, name: str) -> list[int]:
        """All server indices in ring-successor order from ``name``'s
        hash — the primary first, then the failover sequence a crash of
        each predecessor would fall through to."""
        h = crc32(name.encode())
        start = bisect.bisect_right(self._keys, h) % len(self._ring)
        seen: set[int] = set()
        out: list[int] = []
        for step in range(len(self._ring)):
            idx = self._ring[(start + step) % len(self._ring)][1]
            if idx not in seen:
                seen.add(idx)
                out.append(idx)
                if len(out) == len(self.names):
                    break
        return out


class RendezvousFleet:
    """Consistent-hash front over rendezvous servers sharing a table."""

    def __init__(self, servers, vnodes: int = VNODES) -> None:
        if not servers:
            raise ValueError("fleet needs at least one server")
        self.servers = list(servers)
        self.table = self.servers[0].table
        for s in self.servers:
            if s.table is not self.table:
                raise ValueError("fleet servers must share one HostTable")
        self.sim = self.servers[0].sim
        self.ring = HashRing([s.host.name for s in self.servers], vnodes)
        self._ring = self.ring._ring
        self._keys = self.ring._keys
        self.metrics = self.sim.metrics.scope("rvz.fleet")
        self._m_assigns = self.metrics.counter("assignments")
        self._m_failover = self.metrics.counter("assign_failovers")
        self._g_servers = self.metrics.gauge("servers_up")
        self._g_load = [self.metrics.gauge(f"load.{s.host.name}")
                        for s in self.servers]
        self._g_servers.set(len(self.servers))

    def __len__(self) -> int:
        return len(self.servers)

    # -- assignment -----------------------------------------------------
    def assign_index(self, name: str) -> int:
        """Server index for ``name``: first ring vnode clockwise of the
        name's hash whose server is RUNNING."""
        self._m_assigns.add()
        h = crc32(name.encode())
        start = bisect.bisect_right(self._keys, h) % len(self._ring)
        for step in range(len(self._ring)):
            idx = self._ring[(start + step) % len(self._ring)][1]
            if self.servers[idx].running:
                if step:
                    self._m_failover.add()
                return idx
        raise RuntimeError("no rendezvous server is running")

    def assign(self, name: str):
        return self.servers[self.assign_index(name)]

    # -- observability --------------------------------------------------
    def publish_load(self) -> dict:
        """Refresh ``rvz.fleet.load.<server>`` gauges from the table's
        owner column; returns {server_name: registered endpoints}."""
        up = 0
        loads = {}
        for idx, server in enumerate(self.servers):
            n = int(len(self.table.registered_ids(owner=server.server_index)))
            loads[server.host.name] = n
            self._g_load[idx].set(n)
            if server.running:
                up += 1
        self._g_servers.set(up)
        self.sim.trace.event("rvz.fleet.load", servers_up=up,
                             max_load=max(loads.values(), default=0),
                             min_load=min(loads.values(), default=0))
        return loads
