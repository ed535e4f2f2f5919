"""Per-layer span tracing, installed from outside the program.

:class:`LayerTracer` wraps the public entry points of each layer of
``repro`` (plus the handlers the hot paths bind at construction) so that
every call records a span ``(layer, parent, start, end)`` in memory.
Three hooks make the attribution complete:

* ``Simulator.step`` is the root span (layer ``sim``); the calendar
  entry it is about to dispatch opens a child span for the layer whose
  module defines the fast-lane callable (``_Delivery`` -> ``net.l2``,
  ``_CloudDelivery`` -> ``net.wan``, TCP timers -> ``net.tcp``, ...);
* ``Process._step`` opens a span for the layer of the innermost running
  generator, so process resumes (tap workers, ``wav-rx``, RPC handlers)
  land in their own layer; ``sim.profile`` is enabled on every
  simulator as well, for per-process resume counts;
* the entry-point wrappers nest inside those spans.

A span's self time is its duration minus the time its child spans
cover; a layer's self time is the sum over its spans. Wrappers must be
installed before the topology is built, because hot paths keep bound
methods (``patch()`` binds ``Port.deliver``; ``NatBox`` binds
``_pre_routing`` into its stack). Generator functions are counted but
not timed: calling one only creates the generator, and its resumes are
timed through ``Process._step``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import Counter
from pathlib import Path
from time import perf_counter
from types import FunctionType

import numpy as np

__all__ = ["LAYERS", "LayerTracer", "layer_of_module"]

# Layers in report order. ``other`` is code outside the benchmark's
# layers (apps, scenarios, exp, baselines, sim.pdes, vm).
LAYERS = ("sim", "net.l2", "net.wan", "net.stack", "net.tcp", "core.tap",
          "core.driver", "nat", "stun", "overlay.rpc", "overlay.rendezvous",
          "overlay.can", "core.hoststate", "net.fluid", "faults", "obs", "other")

# Module prefix -> layer; the longest matching prefix wins.
_MODULE_LAYER = {
    "repro.sim": "sim",
    "repro.sim.pdes": "other",
    "repro.net.l2": "net.l2",
    "repro.net.wan": "net.wan",
    "repro.net.stack": "net.stack",
    "repro.net.udp": "net.stack",
    "repro.net.icmp": "net.stack",
    "repro.net.packet": "net.stack",
    "repro.net.addresses": "net.stack",
    "repro.net.dhcp": "net.stack",
    "repro.net.tcp": "net.tcp",
    "repro.net.cc": "net.tcp",
    "repro.net.fluid": "net.fluid",
    "repro.core": "core.driver",
    "repro.core.tap": "core.tap",
    "repro.core.hoststate": "core.hoststate",
    "repro.nat": "nat",
    "repro.stun": "stun",
    "repro.overlay.rpc": "overlay.rpc",
    "repro.overlay.rendezvous": "overlay.rendezvous",
    "repro.overlay.fleet": "overlay.rendezvous",
    "repro.overlay.resources": "overlay.rendezvous",
    "repro.overlay.can": "overlay.can",
    "repro.overlay.space": "overlay.can",
    "repro.faults": "faults",
    "repro.obs": "obs",
}

# (layer, "module:Class", methods). NetworkStack methods called on a
# NatBox's own stack count under ``nat``.
ENTRY_POINTS = (
    ("net.l2", "repro.net.l2:Port", ("transmit", "deliver")),
    ("net.l2", "repro.net.l2:Switch", ("on_frame",)),
    ("net.wan", "repro.net.wan:WanCloud", ("on_frame",)),
    ("net.stack", "repro.net.stack:NetworkStack", ("send_ip", "receive_frame")),
    ("net.stack", "repro.net.udp:UdpLayer", ("send", "receive")),
    ("net.stack", "repro.net.icmp:IcmpLayer", ("receive",)),
    ("net.tcp", "repro.net.tcp:TcpLayer", ("transmit", "receive")),
    ("net.tcp", "repro.net.tcp:TcpConnection", ("send", "app_read")),
    ("core.tap", "repro.core.tap:TapDevice", ("on_frame", "inject")),
    ("core.driver", "repro.core.driver:WavnetDriver", ("_on_captured_frame",)),
    ("core.driver", "repro.core.connection:WavConnection",
     ("send", "start_punching")),
    ("nat", "repro.nat.box:NatBox", ("_pre_routing", "_post_routing")),
    ("stun", "repro.stun.client:StunClient", ("_request",)),
    ("overlay.rpc", "repro.overlay.rpc:RpcEndpoint",
     ("call", "notify", "handle_datagram")),
    ("overlay.rendezvous", "repro.overlay.rendezvous:RendezvousServer",
     ("_on_register", "_on_register_batch", "_on_keepalive",
      "_on_keepalive_batch", "_on_query", "_on_connect")),
    ("overlay.can", "repro.overlay.can:CanNode",
     ("put_ids", "_on_route", "_store_ids", "_next_hop")),
    ("core.hoststate", "repro.core.hoststate:HostTable",
     ("register", "register_batch", "touch", "touch_names", "mark_down",
      "expire", "valid_mask", "handle_ids", "names_in_region")),
    ("net.fluid", "repro.net.fluid:FluidNetwork", ("open", "solve_now")),
    ("faults", "repro.faults.injector:FaultInjector",
     ("crash", "stop", "restore", "link_down", "link_up", "link_flap",
      "loss_burst", "partition", "heal", "nat_reboot", "endpoint_down",
      "endpoint_reconnect", "regional_outage")),
)

# Extra counts read from an entry point's arguments: key -> (note, fn(args)).
_NOTES = {
    "CanNode.put_ids": ("can.ids_routed", lambda args: len(args[1])),
    "CanNode._on_route": ("can.ids_forwarded",
                          lambda args: len(args[1].body) if args[1].op == "put_ids" else 0),
    "FluidNetwork.solve_now": ("fluid.flows_solved", lambda args: len(args[0].flows)),
}

# Constructors whose instances the per-layer counts read at the end.
_TRACKED = ("repro.sim.engine:Simulator", "repro.net.stack:NetworkStack",
            "repro.net.tcp:TcpConnection", "repro.nat.box:NatBox",
            "repro.scenarios.wavnet_env:WavnetEnvironment")


def layer_of_module(module: str) -> str:
    best = ""
    for prefix in _MODULE_LAYER:
        if (module == prefix or module.startswith(prefix + ".")) and len(prefix) > len(best):
            best = prefix
    return _MODULE_LAYER[best] if best else "other"


def _resolve(spec: str):
    module, _, name = spec.partition(":")
    try:
        return getattr(importlib.import_module(module), name)
    except (ImportError, AttributeError):
        return None


class LayerTracer:
    """Span recorder plus the class patches that feed it.

    Use as a context manager around building *and* running the traced
    rep; the patches are removed on exit. Spans live in flat arrays and
    are written out by :meth:`dump`."""

    def __init__(self) -> None:
        self.layer_ids = {name: i for i, name in enumerate(LAYERS)}
        self.span_layer = array("B")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.calls: Counter = Counter()  # "Class.method" -> calls
        self.notes: Counter = Counter()  # extra counts read at entry points
        self.instances: dict[str, list] = {}
        self.missing: list[str] = []
        self._patches: list[tuple] = []
        self._code_layer: dict = {}
        # ids of NatBox stacks; unique because `instances` keeps every stack
        # alive for the tracer's lifetime.
        self.nat_stacks: set[int] = set()

    # -- recording ----------------------------------------------------------
    def _open(self, layer_id: int) -> int:
        i = len(self.span_start)
        self.span_layer.append(layer_id)
        self.span_parent.append(self._stack[-1])
        self.span_end.append(0.0)
        self._stack.append(i)
        self.span_start.append(perf_counter())
        return i

    def _close(self, i: int) -> None:
        self.span_end[i] = perf_counter()
        self._stack.pop()

    def _layer_of_callable(self, fn) -> int:
        func = getattr(fn, "__func__", fn)
        tagged = getattr(func, "_perfbench_layer", None)
        if tagged is not None:
            return tagged
        key = func.__code__ if isinstance(func, FunctionType) else type(func)
        layer = self._code_layer.get(key)
        if layer is None:
            module = (func.__module__ if isinstance(func, FunctionType)
                      else type(func).__module__)
            layer = self._code_layer[key] = self.layer_ids[layer_of_module(module or "")]
        return layer

    def _layer_of_generator(self, gen) -> int:
        while True:
            sub = getattr(gen, "gi_yieldfrom", None)
            if sub is None or not hasattr(sub, "gi_code"):
                break
            gen = sub
        code = gen.gi_code
        layer = self._code_layer.get(code)
        if layer is None:
            frame = gen.gi_frame
            module = frame.f_globals.get("__name__", "") if frame is not None else ""
            layer = self._code_layer[code] = self.layer_ids[layer_of_module(module)]
        return layer

    # -- patching ----------------------------------------------------------
    def _patch(self, cls, name: str, fn) -> None:
        self._patches.append((cls, name, cls.__dict__[name]))
        setattr(cls, name, fn)

    def _wrap(self, cls, name: str, layer: str) -> None:
        orig = cls.__dict__.get(name)
        if not callable(orig):
            self.missing.append(f"{cls.__name__}.{name}")
            return
        key = f"{cls.__name__}.{name}"
        layer_id = self.layer_ids[layer]
        calls, notes = self.calls, self.notes
        note, note_of = _NOTES.get(key, (None, None))
        if inspect.isgeneratorfunction(orig):
            @functools.wraps(orig)
            def counted(*args, **kwargs):
                calls[key] += 1
                if note is not None:
                    notes[note] += note_of(args)
                return orig(*args, **kwargs)
            counted._perfbench_layer = layer_id
            self._patch(cls, name, counted)
            return
        tracer = self
        nat_stacks = self.nat_stacks
        nat_id = self.layer_ids["nat"]
        per_instance = key.startswith("NetworkStack.")

        @functools.wraps(orig)
        def spanned(*args, **kwargs):
            lid = layer_id
            if per_instance and id(args[0]) in nat_stacks:
                lid = nat_id
                calls["nat." + key] += 1
            else:
                calls[key] += 1
            if note is not None:
                notes[note] += note_of(args)
            i = tracer._open(lid)
            try:
                return orig(*args, **kwargs)
            finally:
                tracer._close(i)

        spanned._perfbench_layer = layer_id
        self._patch(cls, name, spanned)

    def _track(self, spec: str) -> None:
        cls = _resolve(spec)
        if cls is None:
            self.missing.append(spec)
            return
        orig = cls.__dict__["__init__"]
        bucket = self.instances.setdefault(cls.__name__, [])
        nat_stacks = self.nat_stacks

        @functools.wraps(orig)
        def init(obj, *args, **kwargs):
            orig(obj, *args, **kwargs)
            bucket.append(obj)
            if cls.__name__ == "Simulator":
                obj.profile.enable()
            elif cls.__name__ == "NatBox":
                nat_stacks.add(id(obj.stack))

        self._patch(cls, "__init__", init)

    def _patch_engine(self) -> None:
        from repro.sim.engine import Process, Simulator, Timer

        tracer = self
        sim_id = self.layer_ids["sim"]
        orig_step = Simulator.__dict__["step"]
        orig_pstep = Process.__dict__["_step"]

        def step(sim):
            cal = sim._calendar
            if not cal:
                return orig_step(sim)  # raises, as the original does
            root = tracer._open(sim_id)
            inner = None
            try:
                # peek() drops canceled heads exactly as step() would,
                # so the head is the entry step() dispatches next.
                sim.peek()
                if cal and cal[0][2] is None:
                    fn = cal[0][3]
                    if fn.__class__ is Timer:
                        fn = fn.fn
                    lid = tracer._layer_of_callable(fn)
                    if lid != sim_id:
                        inner = tracer._open(lid)
                if cal:
                    orig_step(sim)
            finally:
                if inner is not None:
                    tracer._close(inner)
                tracer._close(root)

        def process_step(proc, advance):
            i = tracer._open(tracer._layer_of_generator(proc.generator))
            try:
                orig_pstep(proc, advance)
            finally:
                tracer._close(i)

        self._patch(Simulator, "step", step)
        self._patch(Process, "_step", process_step)

    def __enter__(self) -> "LayerTracer":
        self._patch_engine()
        for spec in _TRACKED:
            self._track(spec)
        for layer, spec, methods in ENTRY_POINTS:
            cls = _resolve(spec)
            if cls is None:
                self.missing.append(spec)
                continue
            for name in methods:
                self._wrap(cls, name, layer)
        return self

    def __exit__(self, *exc) -> None:
        for cls, name, orig in reversed(self._patches):
            setattr(cls, name, orig)
        self._patches.clear()

    # -- results -----------------------------------------------------------
    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer: each span's duration minus the
        time covered by its child spans, summed by layer."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        layer = np.frombuffer(self.span_layer, dtype=np.uint8)
        dur = end - start
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        per_layer = np.bincount(layer, weights=dur - child, minlength=len(LAYERS))
        return {name: float(per_layer[i]) for i, name in enumerate(LAYERS)}

    def root_time(self) -> float:
        """Seconds covered by top-level spans (equals the sum of all self
        times)."""
        start = np.frombuffer(self.span_start, dtype=np.float64)
        end = np.frombuffer(self.span_end, dtype=np.float64)
        parent = np.frombuffer(self.span_parent, dtype=np.int64)
        roots = parent < 0
        return float((end[roots] - start[roots]).sum())

    def dump(self, path: Path) -> None:
        """Write every span: layer index, parent span, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez(path, layers=np.array(LAYERS),
                 layer=np.frombuffer(self.span_layer, dtype=np.uint8),
                 parent=np.frombuffer(self.span_parent, dtype=np.int64),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64))
