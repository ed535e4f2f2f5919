"""Struct-of-arrays host registry: the million-endpoint control plane.

The paper validates WAVNet at 7 sites / ~400 PlanetLab hosts, where
every host can afford a full object stack (driver, NAT box, L2 ports,
simulation processes). Pushing the rendezvous + CAN control plane to
10^5-10^6 *registered* endpoints is impossible at ~100 KB per idle
host, so registered-endpoint state is split from materialized hosts:

* :class:`HostTable` — a struct-of-arrays table (numpy columns, one row
  per endpoint) holding everything the control plane needs about a
  registered endpoint: packed NAT mapping (public/private 2-tuples),
  reachability endpoint, rendezvous assignment, CAN coordinates,
  resource attributes, liveness epoch, relay/materialized flags. No
  per-host Process, socket, or L2 objects — an idle endpoint costs a
  table row plus its name.
* :meth:`HostTable.materialize` — lazily instantiate the full
  driver/NAT/L2 stack for a host that actively punches or moves
  traffic, through a scenario-supplied hook.
* :meth:`HostTable.demote` — fold an idle host back into the table:
  its registration state is captured into the row and the object stack
  is torn down.

Rows are identified by a dense integer ``host_id``; cross-layer
references (CAN directory entries, replicas) use *handles* — the row id
packed with the row's registration generation — so a stale reference to
a re-registered or expired endpoint is detectable in O(1) and in bulk
with one vectorized mask.

The table is shared: in a rendezvous *fleet*, every server stores its
registrations in the same table tagged with its server index (the
``owner`` column), which is what lets the CAN layer compute per-zone
endpoint load with one vectorized containment test.
"""

from __future__ import annotations

from typing import Any, Callable, Optional

import numpy as np

from repro.nat.types import NatType
from repro.net.addresses import IPv4Address
from repro.overlay.resources import ConnectionInfo, ResourceRecord, ResourceSpec

__all__ = ["EndpointRow", "HostTable", "FLAG_MATERIALIZED", "FLAG_REGISTERED",
           "FLAG_RELAY"]

FLAG_REGISTERED = 1    # row currently admitted by a rendezvous server
FLAG_MATERIALIZED = 2  # full driver/NAT/L2 stack exists for this row
FLAG_RELAY = 4         # endpoint is relay-only (punching known to fail)

_NAT_CODES = {t: i for i, t in enumerate(NatType)}
_NAT_TYPES = list(NatType)

_GEN_SHIFT = 32
_ID_MASK = (1 << _GEN_SHIFT) - 1


class EndpointRow:
    """A lightweight live view of one :class:`HostTable` row.

    Presents the attribute surface the rendezvous layer historically got
    from its per-host ``RegisteredHost`` dataclass (``name``,
    ``reach_ip``/``reach_port``, ``conn``, ``attrs``, ``last_seen``) but
    reads and writes the table columns directly — constructing one
    allocates nothing beyond the view object itself.
    """

    __slots__ = ("table", "host_id")

    def __init__(self, table: "HostTable", host_id: int) -> None:
        self.table = table
        self.host_id = host_id

    @property
    def name(self) -> str:
        return self.table.name_of(self.host_id)

    @property
    def reach_ip(self) -> IPv4Address:
        return IPv4Address(int(self.table.reach_ip[self.host_id]))

    @reach_ip.setter
    def reach_ip(self, value: IPv4Address) -> None:
        self.table.reach_ip[self.host_id] = value.value

    @property
    def reach_port(self) -> int:
        return int(self.table.reach_port[self.host_id])

    @reach_port.setter
    def reach_port(self, value: int) -> None:
        self.table.reach_port[self.host_id] = value

    @property
    def last_seen(self) -> float:
        return float(self.table.last_seen[self.host_id])

    @last_seen.setter
    def last_seen(self, value: float) -> None:
        self.table.last_seen[self.host_id] = value

    @property
    def conn(self) -> ConnectionInfo:
        return self.table.connection_info(self.host_id)

    @property
    def attrs(self) -> dict:
        return self.table.attrs_of(self.host_id)

    @attrs.setter
    def attrs(self, values: dict) -> None:
        self.table.set_attrs(self.host_id, values)

    @property
    def registered(self) -> bool:
        return bool(self.table.flags[self.host_id] & FLAG_REGISTERED)

    @property
    def materialized(self) -> bool:
        return bool(self.table.flags[self.host_id] & FLAG_MATERIALIZED)

    @property
    def size(self) -> int:
        return 48  # wire-size estimate, matches the old RegisteredHost

    def __repr__(self) -> str:
        return f"EndpointRow({self.name!r}, id={self.host_id})"


class HostTable:
    """Struct-of-arrays registry of every known endpoint.

    One row per endpoint name; rows persist across registration loss
    (crash, expiry) so the *directory* state (virtual IP, last known NAT
    mapping, site configuration) survives while the *registration*
    state (``FLAG_REGISTERED`` + ``owner``) carries the volatile
    admitted-by-a-server relationship. Re-registration bumps the row's
    ``generation``, invalidating any handle minted for the previous
    incarnation.
    """

    def __init__(self, sim, spec: Optional[ResourceSpec] = None,
                 capacity: int = 256) -> None:
        self.sim = sim
        self.spec = spec or ResourceSpec()
        self._dims = self.spec.dims
        self._capacity = max(int(capacity), 16)
        self._n = 0
        self._ids: dict[str, int] = {}
        self._names: list[Optional[str]] = []
        self._alloc(self._capacity)
        # Full object stacks for materialized hosts (host_id -> stack
        # handle, opaque to the table) plus the scenario-supplied hooks.
        self.active: dict[int, Any] = {}
        self.materializer: Optional[Callable[[str], Any]] = None
        self.dematerializer: Optional[Callable[[str, Any], None]] = None
        # Sparse side tables (empty for ordinary endpoints).
        self._extra_attrs: dict[int, dict] = {}
        self._site_cfg: dict[int, dict] = {}
        m = sim.metrics.scope("hosttable")
        self._m_registered = m.counter("registered")
        self._m_expired = m.counter("expired")
        self._m_materialized = m.counter("materialized")
        self._m_demoted = m.counter("demoted")
        self._g_rows = m.gauge("rows")
        self._g_active = m.gauge("active")

    # -- storage -------------------------------------------------------
    def _alloc(self, capacity: int) -> None:
        self.public_ip = np.zeros(capacity, dtype=np.uint32)
        self.public_port = np.zeros(capacity, dtype=np.uint16)
        self.private_ip = np.zeros(capacity, dtype=np.uint32)
        self.private_port = np.zeros(capacity, dtype=np.uint16)
        self.reach_ip = np.zeros(capacity, dtype=np.uint32)
        self.reach_port = np.zeros(capacity, dtype=np.uint16)
        self.rendezvous_ip = np.zeros(capacity, dtype=np.uint32)
        self.rendezvous_port = np.zeros(capacity, dtype=np.uint16)
        self.virtual_ip = np.zeros(capacity, dtype=np.uint32)
        self.nat_code = np.zeros(capacity, dtype=np.uint8)
        self.alloc_stride = np.zeros(capacity, dtype=np.uint16)
        self.flags = np.zeros(capacity, dtype=np.uint8)
        self.owner = np.full(capacity, -1, dtype=np.int16)
        self.region = np.full(capacity, -1, dtype=np.int16)
        self.generation = np.zeros(capacity, dtype=np.uint32)
        self.last_seen = np.full(capacity, -np.inf, dtype=np.float64)
        self.coords = np.zeros((capacity, self._dims), dtype=np.float32)
        self.attr_values = np.zeros((capacity, self._dims), dtype=np.float32)

    _COLUMNS = ("public_ip", "public_port", "private_ip", "private_port",
                "reach_ip", "reach_port", "rendezvous_ip", "rendezvous_port",
                "virtual_ip", "nat_code", "alloc_stride", "flags", "owner", "region",
                "generation", "last_seen", "coords", "attr_values")

    def _grow(self, need: int) -> None:
        capacity = self._capacity
        while capacity < need:
            capacity *= 2
        old = {c: getattr(self, c) for c in self._COLUMNS}
        self._alloc(capacity)
        for c, arr in old.items():
            getattr(self, c)[: len(arr)] = arr
        self._capacity = capacity

    def __len__(self) -> int:
        return self._n

    @property
    def registered_count(self) -> int:
        return int(np.count_nonzero(
            self.flags[: self._n] & FLAG_REGISTERED))

    @property
    def nbytes(self) -> int:
        """Steady-state array bytes (excludes the name index dict)."""
        return sum(getattr(self, c).nbytes for c in self._COLUMNS)

    # -- identity ------------------------------------------------------
    def lookup(self, name: str) -> int:
        """Row id for ``name``; -1 if the table has never seen it."""
        return self._ids.get(name, -1)

    def name_of(self, host_id: int) -> str:
        name = self._names[host_id]
        if name is None:
            raise KeyError(f"host_id {host_id} is unnamed")
        return name

    def row(self, host_id: int) -> EndpointRow:
        return EndpointRow(self, host_id)

    def row_by_name(self, name: str) -> EndpointRow:
        host_id = self.lookup(name)
        if host_id < 0:
            raise KeyError(name)
        return EndpointRow(self, host_id)

    # -- handles (generation-checked cross-layer references) -----------
    def handle(self, host_id: int) -> int:
        return host_id | (int(self.generation[host_id]) << _GEN_SHIFT)

    def handle_ids(self, handles: np.ndarray) -> np.ndarray:
        return (handles & _ID_MASK).astype(np.int64)

    def valid_mask(self, handles: np.ndarray) -> np.ndarray:
        """Vectorized: which handles still name a live registration?"""
        if len(handles) == 0:
            return np.zeros(0, dtype=bool)
        handles = np.asarray(handles, dtype=np.int64)
        ids = handles & _ID_MASK
        gens = handles >> _GEN_SHIFT
        ok = ids < self._n
        safe = np.where(ok, ids, 0)
        ok &= self.generation[safe] == gens
        ok &= (self.flags[safe] & FLAG_REGISTERED) != 0
        return ok

    # -- registration --------------------------------------------------
    def _ensure_row(self, name: str) -> int:
        host_id = self._ids.get(name)
        if host_id is None:
            host_id = self._n
            if host_id >= self._capacity:
                self._grow(host_id + 1)
            self._ids[name] = host_id
            self._names.append(name)
            self._n += 1
            self._g_rows.set(self._n)
        return host_id

    def ensure_row(self, name: str) -> int:
        """Create (or find) the directory row for ``name`` without
        registering it — scenario setup reserves rows this way."""
        return self._ensure_row(name)

    def register(self, name: str, conn: ConnectionInfo, attrs: dict,
                 reach: tuple, now: float, owner: int = -1,
                 region: int = -1) -> int:
        """Admit (or re-admit) ``name``; returns its row id. Bumps the
        generation so handles minted for the previous registration go
        stale."""
        i = self._ensure_row(name)
        self.public_ip[i] = conn.public_ip.value
        self.public_port[i] = conn.public_port
        self.private_ip[i] = conn.private_ip.value
        self.private_port[i] = conn.private_port
        self.rendezvous_ip[i] = conn.rendezvous_ip.value
        self.rendezvous_port[i] = conn.rendezvous_port
        self.reach_ip[i] = reach[0].value
        self.reach_port[i] = reach[1]
        self.nat_code[i] = _NAT_CODES[conn.nat_type]
        self.alloc_stride[i] = conn.alloc_stride
        self.set_attrs(i, attrs)
        self.last_seen[i] = now
        self.owner[i] = owner
        if region >= 0:
            self.region[i] = region
        self.flags[i] |= FLAG_REGISTERED
        self.generation[i] += 1
        self._m_registered.add()
        return i

    def register_batch(self, names: tuple, public_ip: np.ndarray,
                       public_port: np.ndarray, private_ip: np.ndarray,
                       private_port: np.ndarray, nat_code: np.ndarray,
                       attr_values: np.ndarray, rendezvous: tuple,
                       reach: tuple, now: float, owner: int = -1,
                       region: int = -1) -> np.ndarray:
        """Vectorized bulk admission (the registration-storm fast path).

        ``names`` is a tuple of endpoint names; the array arguments are
        parallel per-endpoint columns; ``rendezvous``/``reach`` are
        shared (IPv4Address, port) endpoints. Returns the row ids.
        """
        ids = np.fromiter((self._ensure_row(n) for n in names),
                          dtype=np.int64, count=len(names))
        self.public_ip[ids] = public_ip
        self.public_port[ids] = public_port
        self.private_ip[ids] = private_ip
        self.private_port[ids] = private_port
        self.nat_code[ids] = nat_code
        self.attr_values[ids] = attr_values
        self.coords[ids] = self._to_coords(attr_values)
        self.rendezvous_ip[ids] = rendezvous[0].value
        self.rendezvous_port[ids] = rendezvous[1]
        self.reach_ip[ids] = reach[0].value
        self.reach_port[ids] = reach[1]
        self.last_seen[ids] = now
        self.owner[ids] = owner
        self.region[ids] = region
        self.flags[ids] |= FLAG_REGISTERED
        self.generation[ids] += 1
        self._m_registered.add(len(ids))
        return ids

    def _to_coords(self, attr_values: np.ndarray) -> np.ndarray:
        """Normalize raw attribute values into CAN space (vectorized
        :meth:`ResourceSpec.to_point`)."""
        lows = np.array([lo for _n, lo, _hi in self.spec.attributes],
                        dtype=np.float32)
        highs = np.array([hi for _n, _lo, hi in self.spec.attributes],
                         dtype=np.float32)
        x = (np.asarray(attr_values, dtype=np.float32) - lows) / (highs - lows)
        return np.clip(x, 0.0, 1.0 - 1e-9)

    def set_attrs(self, host_id: int, attrs: dict) -> None:
        """Single-row attribute update (the legacy register/keepalive
        path). The exact dict is kept in a sparse side table so records
        rebuilt for these rows are byte-identical to the pre-table code
        (no float32 round-trip, ints stay ints); the columnar projection
        exists for vectorized zone math. Batch registrations skip the
        side table entirely — storm-scale rows stay columnar."""
        self._extra_attrs[host_id] = dict(attrs)
        for k, (name, _lo, _hi) in enumerate(self.spec.attributes):
            if name in attrs:
                self.attr_values[host_id, k] = float(attrs[name])
        self.coords[host_id] = self._to_coords(self.attr_values[host_id])

    def attrs_of(self, host_id: int) -> dict:
        exact = self._extra_attrs.get(host_id)
        if exact is not None:
            return dict(exact)
        return {name: float(self.attr_values[host_id, k])
                for k, (name, _lo, _hi) in enumerate(self.spec.attributes)}

    def touch(self, host_id: int, now: float,
              reach: Optional[tuple] = None) -> None:
        self.last_seen[host_id] = now
        if reach is not None:
            self.reach_ip[host_id] = reach[0].value
            self.reach_port[host_id] = reach[1]

    def touch_names(self, names, now: float) -> int:
        """Batched keepalive: bump liveness epochs for every known name;
        returns how many were still-registered rows."""
        ids = [self._ids[n] for n in names if n in self._ids]
        if not ids:
            return 0
        arr = np.asarray(ids, dtype=np.int64)
        live = arr[(self.flags[arr] & FLAG_REGISTERED) != 0]
        self.last_seen[live] = now
        return int(len(live))

    # -- registration loss ---------------------------------------------
    def unregister(self, host_id: int) -> None:
        """Drop the registration; directory state stays in the row."""
        self.flags[host_id] &= np.uint8(~FLAG_REGISTERED & 0xFF)
        self.owner[host_id] = -1

    def release_owner(self, owner: int) -> list[str]:
        """A server lost its volatile registry (crash/stop): every row it
        owned becomes unregistered. Returns the affected names."""
        mask = (self.owner[: self._n] == owner) & \
            ((self.flags[: self._n] & FLAG_REGISTERED) != 0)
        ids = np.nonzero(mask)[0]
        self.flags[ids] &= np.uint8(~FLAG_REGISTERED & 0xFF)
        self.owner[ids] = -1
        return [self._names[i] for i in ids]

    def expire(self, horizon: float, owner: Optional[int] = None) -> list[str]:
        """Unregister rows whose liveness epoch predates ``horizon``
        (materialized hosts are exempt — their drivers keepalive).
        Returns the expired names."""
        n = self._n
        mask = ((self.flags[:n] & FLAG_REGISTERED) != 0) \
            & ((self.flags[:n] & FLAG_MATERIALIZED) == 0) \
            & (self.last_seen[:n] < horizon)
        if owner is not None:
            mask &= self.owner[:n] == owner
        ids = np.nonzero(mask)[0]
        if len(ids):
            self.flags[ids] &= np.uint8(~FLAG_REGISTERED & 0xFF)
            self.owner[ids] = -1
            self._m_expired.add(len(ids))
        return [self._names[i] for i in ids]

    def mark_down(self, names) -> int:
        """Fault verb support: endpoints went dark. Their registrations
        drop immediately (the storm re-registers them later); row data
        survives so reconnection needs no side channel."""
        count = 0
        for name in names:
            host_id = self._ids.get(name)
            if host_id is None:
                continue
            if self.flags[host_id] & FLAG_REGISTERED:
                self.unregister(host_id)
                count += 1
        return count

    # -- selection (vectorized) ----------------------------------------
    def registered_ids(self, owner: Optional[int] = None) -> np.ndarray:
        n = self._n
        mask = (self.flags[:n] & FLAG_REGISTERED) != 0
        if owner is not None:
            mask &= self.owner[:n] == owner
        return np.nonzero(mask)[0]

    def names_of(self, ids: np.ndarray) -> list[str]:
        return [self._names[int(i)] for i in ids]

    def names_in_region(self, region: int,
                        registered_only: bool = True) -> list[str]:
        n = self._n
        mask = self.region[:n] == region
        if registered_only:
            mask &= (self.flags[:n] & FLAG_REGISTERED) != 0
        return [self._names[i] for i in np.nonzero(mask)[0]]

    def ids_in_zone(self, zone, ids: np.ndarray) -> np.ndarray:
        """Subset of ``ids`` whose CAN coordinates fall inside ``zone``
        — per-zone load, one vectorized containment test."""
        if len(ids) == 0:
            return ids
        pts = self.coords[ids]
        mask = np.ones(len(ids), dtype=bool)
        for d in range(self._dims):
            mask &= (pts[:, d] >= zone.lows[d]) & (pts[:, d] < zone.highs[d])
        return ids[mask]

    # -- record / connection-info reconstruction -----------------------
    def connection_info(self, host_id: int) -> ConnectionInfo:
        i = host_id
        return ConnectionInfo(
            rendezvous_ip=IPv4Address(int(self.rendezvous_ip[i])),
            rendezvous_port=int(self.rendezvous_port[i]),
            public_ip=IPv4Address(int(self.public_ip[i])),
            public_port=int(self.public_port[i]),
            private_ip=IPv4Address(int(self.private_ip[i])),
            private_port=int(self.private_port[i]),
            nat_type=_NAT_TYPES[int(self.nat_code[i])],
            alloc_stride=int(self.alloc_stride[i]),
            # Freshest externally observed mapping: the reach endpoint is
            # refreshed by every register/keepalive, so it is the best
            # prediction base a broker can hand out.
            observed_port=int(self.reach_port[i]),
        )

    def record(self, host_id: int,
               expires_at: float = float("inf")) -> ResourceRecord:
        """Materialize a full ResourceRecord for one row (only done for
        the handful of rows a query actually returns)."""
        return ResourceRecord(
            host_name=self.name_of(host_id),
            point=tuple(float(x) for x in self.coords[host_id]),
            attrs=self.attrs_of(host_id),
            conn=self.connection_info(host_id),
            expires_at=expires_at,
        )

    # -- lazy materialization ------------------------------------------
    def materialize(self, host_id: int):
        """Instantiate the full driver/NAT/L2 stack for this endpoint
        via the scenario-supplied hook; idempotent."""
        if host_id in self.active:
            return self.active[host_id]
        if self.materializer is None:
            raise RuntimeError("HostTable has no materializer hook")
        stack = self.materializer(self.name_of(host_id))
        self.active[host_id] = stack
        self.flags[host_id] |= FLAG_MATERIALIZED
        self._m_materialized.add()
        self._g_active.set(len(self.active))
        self.sim.trace.event("host.materialize", host=self.name_of(host_id))
        return stack

    def demote(self, host_id: int) -> None:
        """Fold a materialized host back into the table: capture its
        registration state into the row, tear the object stack down."""
        stack = self.active.pop(host_id, None)
        if stack is None:
            return
        if self.dematerializer is not None:
            self.dematerializer(self.name_of(host_id), stack)
        self.flags[host_id] &= np.uint8(~FLAG_MATERIALIZED & 0xFF)
        self._m_demoted.add()
        self._g_active.set(len(self.active))
        self.sim.trace.event("host.demote", host=self.name_of(host_id))

    # -- site construction state (materialize/demote round trips) ------
    def set_site_config(self, host_id: int, **cfg) -> None:
        if cfg:
            self._site_cfg[host_id] = cfg

    def site_config(self, host_id: int) -> dict:
        return dict(self._site_cfg.get(host_id, ()))

    def __repr__(self) -> str:
        return (f"HostTable(rows={self._n}, "
                f"registered={self.registered_count}, "
                f"active={len(self.active)})")
