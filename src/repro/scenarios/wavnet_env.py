"""Complete WAVNet deployments: cloud, STUN, rendezvous layer, hosts.

:class:`WavnetEnvironment` assembles everything a WAVNet experiment
needs and exposes the knobs the paper's evaluation varies: NAT types,
site latencies/bandwidths, number of hosts, keepalive period.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.driver import WavnetDriver
from repro.core.hoststate import HostTable
from repro.exp.spec import scenario
from repro.net.addresses import IPv4Address
from repro.net.stack import Host
from repro.net.wan import WanCloud
from repro.overlay.fleet import HashRing, RendezvousFleet
from repro.overlay.rendezvous import RendezvousServer
from repro.overlay.resources import ResourceSpec
from repro.scenarios.builder import NattedSite, make_natted_site, make_public_host
from repro.sim.engine import Simulator
from repro.stun.server import StunServerPair

__all__ = ["WavnetEnvironment", "WavnetHost", "wavnet_mesh"]


@dataclass
class WavnetHost:
    """One desktop host participating in WAVNet."""

    host: Host
    driver: WavnetDriver
    site: Optional[NattedSite] = None

    @property
    def name(self) -> str:
        return self.driver.name

    @property
    def virtual_ip(self) -> IPv4Address:
        return self.driver.virtual_ip


class WavnetEnvironment:
    """A WAN with STUN + rendezvous infrastructure and WAVNet hosts."""

    def __init__(self, sim: Simulator, default_latency: float = 0.025,
                 n_rendezvous: int = 1, spec: Optional[ResourceSpec] = None,
                 virtual_network: str = "10.99.0.0/16",
                 admission_rate: Optional[float] = None,
                 admission_burst: Optional[float] = None,
                 replication_factor: Optional[int] = None,
                 hot_zone_limit: Optional[int] = None,
                 expiry_interval: Optional[float] = None,
                 retry_concurrency: Optional[int] = None) -> None:
        self.sim = sim
        self.cloud = WanCloud(sim, default_latency=default_latency)
        self.spec = spec or ResourceSpec()
        self.virtual_network = virtual_network
        self.n_rendezvous = n_rendezvous
        self.rendezvous: list[RendezvousServer] = []
        self.hosts: dict[str, WavnetHost] = {}
        self.retry_concurrency = retry_concurrency
        self._next_vip = 1
        self._next_pub = 1
        # Driver-side view of the fleet assignment: pure name hashing.
        self.ring = HashRing([f"rvz{i}" for i in range(n_rendezvous)])
        # Single source of truth for every registered endpoint; the
        # rendezvous servers all own slices of it (fleet sharding).
        self.table = HostTable(sim, spec=self.spec)
        self.table.materializer = self._materialize_host
        self.table.dematerializer = self._dematerialize_host
        self.stun = StunServerPair(sim, self.cloud)
        for i in range(n_rendezvous):
            rhost = make_public_host(sim, self.cloud, f"rvz{i}", f"9.1.0.{i + 1}",
                                     network="9.1.0.0/24")
            server = RendezvousServer(rhost, spec=self.spec,
                                      table=self.table, server_index=i,
                                      admission_rate=admission_rate,
                                      admission_burst=admission_burst,
                                      replication_factor=replication_factor,
                                      hot_zone_limit=hot_zone_limit,
                                      expiry_interval=expiry_interval,
                                      retry_concurrency=retry_concurrency)
            if i == 0:
                server.bootstrap()
            self.rendezvous.append(server)
        self.fleet = RendezvousFleet(self.rendezvous)

    def join_rendezvous_overlay(self):
        """Process: join all non-bootstrap rendezvous nodes into the CAN
        (servers already in the overlay are left alone)."""
        for server in self.rendezvous[1:]:
            if not server.can.joined:
                yield self.sim.process(server.join_via(self.rendezvous[0]))

    def _alloc_vip(self) -> IPv4Address:
        vip = IPv4Address("10.99.0.0") + self._next_vip
        self._next_vip += 1
        return vip

    # -- fleet addressing ----------------------------------------------
    def rendezvous_addr(self, index: int) -> IPv4Address:
        """IP of rendezvous server ``index``."""
        if not 0 <= index < self.n_rendezvous:
            raise IndexError(f"rendezvous index {index} out of range")
        return self.rendezvous[index].ip

    def assign_rendezvous(self, name: str) -> int:
        """Fleet consistent-hash assignment for an endpoint name (static
        ring — identical to ``fleet.assign_index`` while all servers are
        up)."""
        return self.ring.index(name)

    def add_host(
        self,
        name: str,
        nat_type: str = "port-restricted",
        rendezvous_index: Optional[int] = None,
        access_bandwidth_bps: float = 100e6,
        access_latency: float = 0.0005,
        udp_timeout: float = 60.0,
        attrs: Optional[dict] = None,
        pulse_interval: float = 5.0,
        public: bool = False,
        tcp_mss: int = 1460,
        tcp_send_buf: int = 262144,
        tcp_recv_buf: int = 262144,
        cpu_factor: float = 1.0,
        port_alloc: Optional[str] = None,
        port_stride: int = 1,
        **driver_kwargs,
    ) -> WavnetHost:
        """Add one desktop host (behind its own NAT unless ``public``):
        reserve its directory row, then build the full object stack.

        ``nat_type`` accepts combined specs like ``"symmetric-sequential"``
        naming the NAT's port-allocation policy; ``port_alloc=`` /
        ``port_stride=`` override it explicitly."""
        self.add_endpoint(name, nat_type=nat_type,
                          rendezvous_index=rendezvous_index,
                          access_bandwidth_bps=access_bandwidth_bps,
                          access_latency=access_latency,
                          udp_timeout=udp_timeout, attrs=attrs,
                          pulse_interval=pulse_interval, public=public,
                          tcp_mss=tcp_mss, tcp_send_buf=tcp_send_buf,
                          tcp_recv_buf=tcp_recv_buf, cpu_factor=cpu_factor,
                          port_alloc=port_alloc, port_stride=port_stride,
                          **driver_kwargs)
        return self._build_host(name)

    def add_endpoint(self, name: str, region: int = -1, **site_config) -> int:
        """Reserve a table row for an endpoint *without* building any
        object stack: allocates its stable virtual IP and public-address
        slot and records the site configuration, so a later
        :meth:`materialize` (or :meth:`add_host`, which calls this)
        constructs an identical host every time. Returns the row id."""
        if name in self.hosts:
            raise ValueError(f"duplicate host {name!r}")
        host_id = self.table.ensure_row(name)
        if self.table.site_config(host_id):
            raise ValueError(f"endpoint {name!r} already declared")
        # Fleet-aware server selection: a ``None`` (or absent) index
        # means "hash me onto the ring" — the same assignment the fleet
        # itself would compute. An explicit integer keeps the legacy
        # static pinning.
        rendezvous_index = site_config.get("rendezvous_index")
        fleet_assigned = rendezvous_index is None
        if fleet_assigned:
            rendezvous_index = self.ring.index(name)
        if not 0 <= rendezvous_index < self.n_rendezvous:
            raise IndexError(f"rendezvous_index {rendezvous_index} out of range")
        pub_index = self._next_pub
        self._next_pub += 1
        vip = self._alloc_vip()
        self.table.virtual_ip[host_id] = vip.value
        if region >= 0:
            self.table.region[host_id] = region
        cfg = dict(nat_type="port-restricted", rendezvous_index=0,
                   access_bandwidth_bps=100e6, access_latency=0.0005,
                   udp_timeout=60.0, attrs=None, pulse_interval=5.0,
                   public=False, tcp_mss=1460, tcp_send_buf=262144,
                   tcp_recv_buf=262144, cpu_factor=1.0,
                   port_alloc=None, port_stride=1)
        driver_kwargs = {k: v for k, v in site_config.items() if k not in cfg}
        cfg.update({k: v for k, v in site_config.items() if k in cfg})
        cfg["rendezvous_index"] = rendezvous_index
        cfg["fleet_assigned"] = fleet_assigned
        cfg["pub_index"] = pub_index
        cfg["driver_kwargs"] = driver_kwargs
        self.table.set_site_config(host_id, **cfg)
        return host_id

    def _build_host(self, name: str) -> WavnetHost:
        """Construct the full host/NAT/driver stack for a declared
        endpoint from its table row — used by :meth:`add_host` and by
        lazy materialization, so both produce identical stacks."""
        host_id = self.table.lookup(name)
        cfg = self.table.site_config(host_id)
        if not cfg:
            raise KeyError(f"endpoint {name!r} was never declared")
        pub_index = cfg["pub_index"]
        rendezvous_index = cfg["rendezvous_index"]
        rendezvous_ip = self.rendezvous_addr(rendezvous_index)
        stack_kwargs = dict(tcp_mss=cfg["tcp_mss"],
                            tcp_send_buf=cfg["tcp_send_buf"],
                            tcp_recv_buf=cfg["tcp_recv_buf"],
                            cpu_factor=cfg["cpu_factor"])
        if cfg["public"]:
            host = make_public_host(self.sim, self.cloud, name,
                                    f"8.2.{pub_index // 250}.{(pub_index % 250) + 1}",
                                    network="8.0.0.0/8",
                                    access_latency=cfg["access_latency"],
                                    access_bandwidth_bps=cfg["access_bandwidth_bps"],
                                    **stack_kwargs)
            site = None
        else:
            subnet_octet = 1 + (pub_index % 254)
            site = make_natted_site(
                self.sim, self.cloud, name,
                f"8.3.{pub_index // 250}.{(pub_index % 250) + 1}",
                nat_type=cfg["nat_type"],
                lan_subnet=f"192.168.{subnet_octet}.0/24",
                access_bandwidth_bps=cfg["access_bandwidth_bps"],
                access_latency=cfg["access_latency"],
                udp_timeout=cfg["udp_timeout"],
                port_alloc=cfg.get("port_alloc"),
                port_stride=cfg.get("port_stride", 1),
                **stack_kwargs)
            host = site.hosts[0]
        # Every other rendezvous server is a registration failover
        # target: fleet-assigned endpoints fail over in ring-successor
        # order (the server that inherits their ring arc), pinned ones
        # in index order.
        driver_kwargs = dict(cfg["driver_kwargs"])
        if cfg.get("fleet_assigned"):
            backups = [self.rendezvous_addr(j)
                       for j in self.ring.order(name)[1:]]
        else:
            backups = [self.rendezvous_addr(j)
                       for j in range(self.n_rendezvous)
                       if j != rendezvous_index]
        driver_kwargs.setdefault("backup_rendezvous_ips", backups)
        if self.retry_concurrency is not None:
            driver_kwargs.setdefault("retry_concurrency", self.retry_concurrency)
        driver = WavnetDriver(
            host,
            virtual_ip=IPv4Address(int(self.table.virtual_ip[host_id])),
            virtual_network=self.virtual_network,
            rendezvous_ip=rendezvous_ip,
            stun_server_ip=self.stun.primary_ip,
            attrs=cfg["attrs"],
            name=name,
            pulse_interval=cfg["pulse_interval"],
            **driver_kwargs,
        )
        wav_host = WavnetHost(host=host, driver=driver, site=site)
        self.hosts[wav_host.name] = wav_host
        return wav_host

    # -- lazy materialization ------------------------------------------
    def materialize(self, name: str) -> WavnetHost:
        """Instantiate and start the full stack for a table-resident
        endpoint (runs the simulator to drive STUN + registration)."""
        host_id = self.table.lookup(name)
        if host_id < 0:
            raise KeyError(name)
        return self.table.materialize(host_id)

    def demote(self, name: str) -> None:
        """Fold a materialized host back into its table row: capture its
        control-plane state, tear down driver/NAT/links, and release the
        lifecycle registrations. The directory row survives, so the
        endpoint stays queryable and can re-materialize identically."""
        host_id = self.table.lookup(name)
        if host_id < 0:
            raise KeyError(name)
        self.table.demote(host_id)

    def _materialize_host(self, name: str) -> WavnetHost:
        wav = self._build_host(name)
        self.sim.run_coro(wav.driver.start())
        return wav

    def _dematerialize_host(self, name: str, wav: WavnetHost) -> None:
        host_id = self.table.lookup(name)
        state = wav.driver.export_endpoint_state()
        self.table.public_ip[host_id] = IPv4Address(state["public_ip"]).value
        self.table.public_port[host_id] = state["public_port"]
        self.table.touch(host_id, self.sim.now)
        wav.driver.stop()
        self.cloud.detach(name)
        registry = self.sim.components
        doomed = {wav.driver.component_id}
        doomed.update(cid for cid in registry
                      if cid.startswith((f"link:{name}.", f"nat:{name}.")))
        for cid in doomed:
            registry.remove(cid)
        del self.hosts[name]

    def set_site_rtt(self, a: str, b: str, rtt: float) -> None:
        """Pairwise RTT between two host sites over the cloud."""
        self.cloud.set_rtt(a, b, rtt)

    # -- conveniences (run the simulator themselves) -------------------
    def up(self) -> "WavnetEnvironment":
        """Bring the deployment up: join extra rendezvous servers into
        the CAN, then start every driver. Runs the simulator; returns
        self so ``env.up().connect(...)`` chains."""
        if len(self.rendezvous) > 1:
            self.sim.run_coro(self.join_rendezvous_overlay())
        self.sim.run_coro(self.start_all())
        return self

    def connect(self, *pairs):
        """Punch tunnels and return the connections (runs the simulator).

        * ``env.connect("a", "b")`` — one pair, returns its connection;
        * ``env.connect(("a", "b"), ("a", "c"))`` — returns a list;
        * ``env.connect()`` — full mesh over all hosts, returns a list.
        """
        if len(pairs) == 2 and all(isinstance(p, str) for p in pairs):
            return self.sim.run_coro(self.connect_pair(*pairs))
        if not pairs:
            return self.sim.run_coro(self.connect_full_mesh())
        return [self.sim.run_coro(self.connect_pair(a, b)) for a, b in pairs]

    def start_all(self):
        """Process: start every driver (STUN + registration), serially to
        keep rendezvous registration deterministic."""
        for wav_host in self.hosts.values():
            yield self.sim.process(wav_host.driver.start())

    def connect_pair(self, a: str, b: str):
        """Process: host ``a`` discovers and punches to host ``b``."""
        driver = self.hosts[a].driver
        conn = yield from driver.connect_by_name(b)
        return conn

    def connect_full_mesh(self, names: Optional[list[str]] = None):
        """Process: pairwise connections among ``names`` (default: all);
        returns the connections in pair order."""
        names = names or list(self.hosts)
        conns = []
        for i, a in enumerate(names):
            for b in names[i + 1:]:
                conn = yield self.sim.process(self.connect_pair(a, b))
                conns.append(conn)
        return conns


@scenario("wavnet_mesh")
def wavnet_mesh(seed: int = 0, n_hosts: int = 2, n_rendezvous: int = 1,
                nat_type: str = "port-restricted", rtt: float = 0.05,
                settle: float = 0.0):
    """Bring up a full-mesh WAVNet deployment and report how it punched:
    the baseline scenario for sweeping NAT types, host counts, and WAN
    RTTs through the experiment plane."""
    sim = Simulator(seed=seed)
    env = WavnetEnvironment(sim, default_latency=rtt / 2.0,
                            n_rendezvous=n_rendezvous)
    for i in range(n_hosts):
        env.add_host(f"m{i}", nat_type=nat_type)
    conns = env.up().connect()
    if settle > 0:
        sim.run(until=sim.now + settle)
    punch = [c.established_at for c in conns]
    payload = {
        "n_hosts": n_hosts,
        "nat_type": nat_type,
        "connections": len(conns),
        "relayed": sum(1 for c in conns if c.relayed),
        "punch_done_at": punch,
        "mesh_done_at": max(punch) if punch else None,
    }
    return sim, payload
