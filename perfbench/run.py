"""Repo benchmark: host cost of four canonical WAVNet runs, split per layer.

Run from the repository root::

    python3 perfbench/run.py --workload ttcp_wavnet --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats the workload's rep (identical inputs) until
``--seconds`` are used and prints the end-to-end metrics; ``--trace 1``
runs one untraced rep and one traced rep and prints the per-layer
metrics. The last stdout line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it give every
metric with its unit and every ratio with its base. The workload runs in
this process on one thread; the import part of set-up is timed in fresh
interpreters, one at a time, between reps. ``--tiny`` shrinks every workload
for the benchmark's own tests.

Workloads, and why each was chosen
----------------------------------
* ``ttcp_wavnet`` — the Fig 6 ttcp transfer (8 MiB plus up to 256 KiB
  chosen by the seed) between two port-restricted NATed WAVNet hosts on
  the HKU-SIAT path. Closed loop, one window-limited flow. Every
  data-plane layer does per-frame work; the control plane is idle after
  one punch.
* ``churn_mesh`` — ``churn_recovery`` on 4 seeds derived from the
  workload seed (4 NATed hosts, 2 rendezvous servers, scripted
  rendezvous crash, host crash, NAT reboot and link flap, 1 Hz ICMP ring
  as an open loop in simulated time). The same layers as the other
  workloads, used differently: small sparse frames expose fixed
  per-packet cost, hosts register one at a time, and STUN, punching, RPC
  retries and CAN takeover all run.
* ``reg_storm`` — ``registration_storm`` on 8 derived seeds of 12,500
  table-resident endpoints each (4 rendezvous servers, 4 regional lanes
  batch-registering as closed loops, region 0 down and reconnecting in a
  storm while 2 punch probes run). The control plane at table scale; the
  packet data plane only carries RPC batches. Several storms per rep
  because a storm's cost depends on its seed's CAN layout.
* ``fluid_poisson`` — 8 independent open-loop Poisson streams (2000
  flows/s for 0.5 simulated s each) of bounded-Pareto (alpha 1.2) flows
  over 10 host pairs on 1 Gb/s links at 60% load, each flow opened
  through ``FluidNetwork.open``. The only workload where the fluid solver
  does the work: it re-solves on every arrival and departure, and the
  packet layers are idle.

End-to-end metrics (``--trace 0``)
----------------------------------
``run_s`` median host seconds of the measured phase of one rep;
``setup_s`` median host seconds to import ``repro`` (in a fresh
interpreter) plus the median seconds to build and bring up the rep's
topologies (STUN, registration, punching). Both are host seconds at a
reference host speed: each time is divided by the host's slowdown, a
fixed pure-Python reference job timed next to it over that job's time
at the reference speed. The host these were tuned on drifts by up to
1.5x within minutes, which moved raw medians of ten runs by 11-30%;
the wall times and slowdowns are printed beside the scaled values.
``peak_rss_mb`` peak resident memory of this process;
``sim_latency_p50_s`` the median simulated latency of the workload's
ops: the transfer time (``ttcp_wavnet``), the repair time
(``churn_mesh``, printed also as ``sim_repair_p50_s``), the per-endpoint
reconnect time (``reg_storm``) and the flow completion time
(``fluid_poisson``, also ``sim_fct_p50_s``). The tail — the highest
percentile with at least 10 samples beyond it — is printed with its
percentile and sample count but carries no bound: the FCT tail of an
open Poisson stream moves 15-35% between seeds. The workload's own
outcomes (``sim_goodput_mbps``, ``sim_reconnect_s``) are printed too.
Simulated outcomes are deterministic for a seed: a speed-only change
must leave them, and the printed digest, identical. ``failed_ops_ratio``
is printed with its base; its numerator and denominator are the
result's ``failed`` and ``attempted``.

Which layer metric should move which end-to-end metric
------------------------------------------------------
Self times and counts come from the traced rep (``--trace 1``); the
other workloads predict no change.

==========================================  =============================
layer metrics                               moves
==========================================  =============================
sim.events, sim.events_per_op, sim.self_s   run_s on churn_mesh, ttcp_wavnet
net.l2.*, net.wan.*                         run_s on ttcp_wavnet
net.stack.*                                 run_s on ttcp_wavnet, churn_mesh
net.tcp.*                                   run_s on ttcp_wavnet
core.tap.*                                  run_s on ttcp_wavnet
core.driver.frames, core.driver.self_s      run_s on ttcp_wavnet
core.driver.punch_*, core.driver.repairs    run_s, sim_latency_p50_s on churn_mesh
nat.*                                       run_s on ttcp_wavnet, churn_mesh
stun.*                                      setup_s on every workload
overlay.rpc.*                               run_s, sim_latency_p50_s on reg_storm
overlay.rendezvous.*, overlay.can.*         run_s on reg_storm
core.hoststate.*                            run_s, peak_rss_mb on reg_storm
net.fluid.*                                 run_s on fluid_poisson
==========================================  =============================

``faults.injected`` must not change. ``obs.trace_overhead_ratio`` is the
traced rep's ``run_s`` over the untraced rep's. ``trace.residual_s`` is
the traced wall time that no span covers (topology construction, the
loop in ``Simulator.run``, the benchmark's own glue).
"""

from __future__ import annotations

import argparse
import gc
import heapq
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
WORKLOAD_NAMES = ("ttcp_wavnet", "churn_mesh", "reg_storm", "fluid_poisson")

# Seconds the reference job takes at the reference host speed (a 2.1 GHz
# Xeon vCPU in a quiet period). On a shared machine the host's speed
# drifts by up to 1.5x over minutes; each rep's host times are divided
# by the host's slowdown, the mean of the reference jobs timed just
# before and just after the rep over REFERENCE_S.
REFERENCE_S = 0.1
IMPORT_SAMPLES = 5

# layer -> (end-to-end metric it should move, workloads), as tabled above.
PREDICTIONS = {
    "sim": ("run_s", ("churn_mesh", "ttcp_wavnet")),
    "net.l2": ("run_s", ("ttcp_wavnet",)),
    "net.wan": ("run_s", ("ttcp_wavnet",)),
    "net.stack": ("run_s", ("ttcp_wavnet", "churn_mesh")),
    "net.tcp": ("run_s", ("ttcp_wavnet",)),
    "core.tap": ("run_s", ("ttcp_wavnet",)),
    "core.driver": ("run_s", ("ttcp_wavnet", "churn_mesh")),
    "nat": ("run_s", ("ttcp_wavnet", "churn_mesh")),
    "stun": ("setup_s", WORKLOAD_NAMES),
    "overlay.rpc": ("run_s", ("reg_storm",)),
    "overlay.rendezvous": ("run_s", ("reg_storm",)),
    "overlay.can": ("run_s", ("reg_storm",)),
    "core.hoststate": ("run_s", ("reg_storm",)),
    "net.fluid": ("run_s", ("fluid_poisson",)),
}


def tail(samples: list) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves at least 10 samples beyond it; the maximum when there are too
    few samples for that."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


class Rep:
    """Host times and outcomes of one rep (every unit of the workload)."""

    def __init__(self, workload) -> None:
        from workloads import digest_of

        self.setup_s = self.run_s = self.wall_s = 0.0
        self.outcomes = []
        for unit in workload.units():
            t0 = perf_counter()
            state = workload.setup(unit)
            t1 = perf_counter()
            state = workload.measure(state)
            t2 = perf_counter()
            self.setup_s += t1 - t0
            self.run_s += t2 - t1
            self.outcomes.append(workload.collect(state))
            self.wall_s += perf_counter() - t0
            del state
        self.attempted = sum(o.attempted for o in self.outcomes)
        self.failed = sum(o.failed for o in self.outcomes)
        self.samples = [x for o in self.outcomes for x in o.samples]
        self.digest = digest_of([o.digest for o in self.outcomes])

    def native(self) -> dict:
        """name -> ([value per unit], unit) of the workload's own outcomes."""
        merged: dict = {}
        for o in self.outcomes:
            for key, (value, unit) in o.native.items():
                merged.setdefault(key, ([], unit))[0].append(value)
        return merged


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class _Slot:
    __slots__ = ("due", "seq", "prev")


def reference_seconds() -> float:
    """Host seconds of a fixed pure-Python job shaped like the
    simulator's inner loop: small objects, a heap calendar and dict
    lookups. Its working set stays near 1 MB so that it does not raise
    the process's peak memory."""
    start = perf_counter()
    heap: list = []
    table: dict = {}
    ring: list = [None] * 4096
    for i in range(50_000):
        slot = _Slot()
        slot.due = (i * 7919) % 100_003
        slot.seq = i
        slot.prev = table.get((i * 13) % 4093, slot).seq
        heapq.heappush(heap, (slot.due, i, slot))
        ring[(i * 40_503) & 4095] = slot
        table[i % 4093] = slot
        if len(heap) > 2048:
            heapq.heappop(heap)
    return perf_counter() - start


def import_seconds() -> float:
    """Host seconds to import the program and the workloads in a fresh
    interpreter (timed in the child, so interpreter start-up is
    excluded)."""
    code = ("import sys, time; t = time.perf_counter(); "
            f"sys.path[:0] = [{str(ROOT / 'src')!r}, {str(Path(__file__).resolve().parent)!r}]; "
            "import workloads; print(time.perf_counter() - t)")
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, check=True,
                         capture_output=True, text=True, timeout=120)
    return float(out.stdout.split()[-1])


def report_outcome(workload, rep: Rep) -> float:
    """Print the rep's simulated outcome (latency median and tail, with
    their sample counts, under the generic and the workload's own names)
    and return the latency median."""
    p50 = statistics.median(rep.samples)
    tail_value, tail_pct, beyond = tail(rep.samples)
    n = len(rep.samples)
    p50_name, tail_name = workload.LATENCY_NAMES
    print(f"sim_latency_p50_s {p50:.6f} s over {n} samples, alias {p50_name}")
    print(f"sim_latency_tail_s {tail_value:.6f} s: p{tail_pct:.2f} of {n} samples, "
          f"{beyond} beyond, alias {tail_name}")
    for key, (values, unit) in rep.native().items():
        print(f"{key} {statistics.median(values):.6g} {unit}: median over "
              f"{len(values)} units [{', '.join(f'{v:.6g}' for v in values)}]")
    return p50


def untraced(workload, seconds: float) -> tuple[dict, list[Rep]]:
    """Reps until ``seconds`` are used. A reference job runs between reps,
    and an import sample follows it in the first few gaps, so that every
    host time is scaled by the host speed around it."""
    reps: list[Rep] = []
    took: list[float] = []
    refs = [reference_seconds()]
    imports = [import_seconds() / (refs[0] / REFERENCE_S)]
    start = perf_counter()
    while True:
        gc.collect()
        t0 = perf_counter()
        reps.append(Rep(workload))
        took.append(perf_counter() - t0)
        refs.append(reference_seconds())
        if len(imports) < IMPORT_SAMPLES:
            imports.append(import_seconds() / (refs[-1] / REFERENCE_S))
        if perf_counter() - start + statistics.median(took) > seconds:
            break
    slowdown = [(a + b) / 2 / REFERENCE_S for a, b in zip(refs, refs[1:])]
    run = [r.run_s / k for r, k in zip(reps, slowdown)]
    build = [r.setup_s / k for r, k in zip(reps, slowdown)]
    run_s = statistics.median(run)
    setup_s = statistics.median(imports) + statistics.median(build)
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"host slowdown per rep [{', '.join(f'{k:.4f}' for k in slowdown)}]: reference "
          f"job {REFERENCE_S} s at reference speed, timed [{', '.join(f'{t:.4f}' for t in refs)}]")
    print(f"run_s {run_s:.4f} s at reference speed: median of {len(reps)} reps "
          f"[{', '.join(f'{t:.4f}' for t in run)}]; wall "
          f"[{', '.join(f'{r.run_s:.4f}' for r in reps)}]")
    print(f"setup_s {setup_s:.4f} s at reference speed: median import "
          f"{statistics.median(imports):.4f} s [{', '.join(f'{t:.4f}' for t in imports)}] "
          f"+ median build {statistics.median(build):.4f} s "
          f"[{', '.join(f'{t:.4f}' for t in build)}]")
    print(f"peak_rss_mb {peak:.1f} MB")
    p50 = report_outcome(workload, reps[0])
    return {
        "run_s": _metric(run_s, "s"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(peak, "MB"),
        "sim_latency_p50_s": _metric(p50, "s"),
    }, reps


def _registry_sum(sims, match) -> float:
    total = 0.0
    for sim in sims:
        for path in sim.metrics.paths():
            if match(path):
                total += sim.metrics.value(path)
    return total


def layer_metrics(tracer, rep: Rep, base_run_s: float) -> dict:
    """The per-layer metrics of one traced rep, with their bases."""
    from repro.scenarios.storm import steady_state_bytes

    from layers import LAYERS

    sims = tracer.instances.get("Simulator", [])
    calls, notes = tracer.calls, tracer.notes
    self_t = tracer.self_times()
    suffix = lambda *ends: lambda p: p.endswith(ends)  # noqa: E731
    events = sum(s.events_dispatched for s in sims)
    nat_stacks = tracer.nat_stacks
    stacks = [s for s in tracer.instances.get("NetworkStack", []) if id(s) not in nat_stacks]
    links = [c for s in sims for c in s.components.find(kind="link").values()]
    natboxes = tracer.instances.get("NatBox", [])
    tap_resumes = sum(steps for s in sims for name, (steps, _w) in s.profile.stats.items()
                      if name.startswith("tap-"))
    tap_frames = calls["TapDevice.on_frame"] + calls["TapDevice.inject"]
    rpc_calls = _registry_sum(sims, suffix(".rpc.calls"))
    rpc_retries = _registry_sum(sims, suffix(".rpc.retries"))
    punches = calls["WavConnection.start_punching"]
    established = _registry_sum(sims, suffix(".driver.connect.established"))
    envs = [e for e in tracer.instances.get("WavnetEnvironment", [])
            if getattr(e, "table", None) is not None]
    rows = sum(len(e.table) for e in envs)
    table_bytes = sum(steady_state_bytes(e) for e in envs)
    ids_routed = notes["can.ids_routed"]
    solves = _registry_sum(sims, lambda p: p == "fluid.solves")

    def pipe_drops(link) -> int:
        return sum(getattr(pipe, "drops", 0) + getattr(pipe, "frames_lost", 0)
                   + getattr(pipe, "frames_dropped_down", 0)
                   for pipe in (getattr(link, "ab", None), getattr(link, "ba", None)))

    ratios = {  # name -> (numerator, denominator, unit)
        "sim.events_per_op": (events, rep.attempted, "events/op"),
        "core.tap.events_per_frame": (tap_resumes, tap_frames, "resumes/frame"),
        "core.driver.punch_success_ratio": (established, punches, "ratio"),
        "overlay.rpc.retries_per_call": (rpc_retries, rpc_calls, "retries/call"),
        "overlay.can.hops_per_id": (notes["can.ids_forwarded"], ids_routed, "hops/id"),
        "core.hoststate.bytes_per_endpoint": (table_bytes, rows, "B/endpoint"),
        "net.fluid.flows_per_solve": (notes["fluid.flows_solved"], solves, "flows/solve"),
        "obs.trace_overhead_ratio": (rep.run_s, base_run_s, "ratio"),
    }
    counts = {
        "sim.events": events,
        "net.l2.frames": calls["Port.deliver"],
        "net.l2.drops": sum(pipe_drops(link) for link in links),
        "net.wan.frames": calls["WanCloud.on_frame"],
        "net.stack.packets": calls["NetworkStack.send_ip"] + calls["NetworkStack.receive_frame"],
        "net.stack.drops": sum(getattr(s, "packets_dropped", 0) for s in stacks),
        "net.tcp.segments": calls["TcpLayer.transmit"],
        "net.tcp.retransmits": sum(getattr(c, "retransmits", 0)
                                   for c in tracer.instances.get("TcpConnection", [])),
        "core.tap.frames": tap_frames,
        "core.driver.frames": _registry_sum(sims, suffix(".driver.frames.tx",
                                                         ".driver.frames.rx")),
        "core.driver.punch_attempts": punches,
        "core.driver.repairs": _registry_sum(sims, suffix(".driver.repair.success")),
        "nat.frames": calls["nat.NetworkStack.receive_frame"],
        "nat.dropped_unsolicited": sum(getattr(n, "dropped_unsolicited", 0) for n in natboxes),
        "stun.probes": calls["StunClient._request"],
        "overlay.rpc.calls": rpc_calls,
        "overlay.rpc.timeouts": _registry_sum(sims, suffix(".rpc.timeouts")),
        "overlay.rendezvous.registrations": _registry_sum(
            sims, suffix(".rvz.hosts.registered", ".rvz.hosts.batch_registered")),
        "overlay.rendezvous.admission_rejects": _registry_sum(
            sims, suffix(".rvz.admission.rejected")),
        "overlay.can.ids_routed": ids_routed,
        "core.hoststate.rows": rows,
        "net.fluid.solves": solves,
        "net.fluid.rate_changes": _registry_sum(sims, lambda p: p == "fluid.rate_changes"),
        "faults.injected": _registry_sum(sims, lambda p: p.startswith("faults.injected.")),
    }
    spanned = tracer.root_time()
    metrics: dict = {}
    for name, value in counts.items():
        metrics[name] = _metric(float(value), "count")
    for name, (num, den, unit) in ratios.items():
        metrics[name] = _metric(_ratio(num, den), unit)
        print(f"{name} {_ratio(num, den):.6g} {unit} = {num:.6g} / {den:.6g}")
    for layer in LAYERS:
        metrics[f"{layer}.self_s"] = _metric(self_t[layer], "s")
    metrics["trace.wall_s"] = _metric(rep.wall_s, "s")
    metrics["trace.residual_s"] = _metric(rep.wall_s - spanned, "s")

    print(f"traced wall {rep.wall_s:.4f} s = spans {spanned:.4f} s "
          f"+ residual {rep.wall_s - spanned:.4f} s; "
          f"{len(tracer.span_start)} spans")
    print(f"{'layer':<20} {'self_s':>9} {'share':>7}  prediction")
    for layer in sorted(LAYERS, key=lambda name: -self_t[name]):
        metric, where = PREDICTIONS.get(layer, ("-", ()))
        print(f"{layer:<20} {self_t[layer]:9.4f} {self_t[layer] / rep.wall_s:7.1%}  "
              f"{metric + ' on ' + ', '.join(where) if where else '-'}")
    if tracer.missing:
        print(f"entry points not found (reported as 0): {', '.join(tracer.missing)}")
    return metrics


def traced(workload) -> tuple[dict, list[Rep], bool]:
    from layers import LayerTracer

    gc.collect()
    base = Rep(workload)
    gc.collect()
    with LayerTracer() as tracer:
        rep = Rep(workload)
    print(f"untraced rep run_s {base.run_s:.4f} s, traced rep run_s {rep.run_s:.4f} s")
    report_outcome(workload, base)
    same = rep.digest == base.digest
    print(f"digest untraced {base.digest} traced {rep.digest}: "
          f"{'identical' if same else 'DIFFERENT'}")
    metrics = layer_metrics(tracer, rep, base.run_s)
    tracer.dump(OUT_DIR / f"spans-{workload.name}.npz")
    return metrics, [base, rep], same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink every workload (the benchmark's own tests)")
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {src}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, tiny=args.tiny)
    print(f"workload {args.workload} seed {args.seed}: {len(workload.units())} units per rep")
    if args.trace:
        metrics, reps, same = traced(workload)
    else:
        metrics, reps = untraced(workload, args.seconds)
        same = len({r.digest for r in reps}) == 1
        print(f"digest {reps[0].digest} ({'same' if same else 'DIFFERENT'} in every rep)")
    attempted = sum(r.attempted for r in reps)
    failed = sum(r.failed for r in reps)
    print(f"failed_ops_ratio {_ratio(failed, attempted):.6g} = {failed} / {attempted} ops")
    print(json.dumps({"correct": same and failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
