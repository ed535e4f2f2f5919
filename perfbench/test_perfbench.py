"""The benchmark's own tests, on tiny workloads.

Run from the repository root::

    python3 -m pytest perfbench -q

They check that every metric named in ``BENCHMARK.json`` (and every name
the benchmark's issue asked for) is emitted with its unit, that every
op passes its correctness check, that tracing leaves the simulated
outputs (the digest) unchanged, and that the benchmark fails cleanly
outside a full checkout.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# Names the benchmark was specified with. The workload-specific simulated
# outcomes are printed under these names next to the generic
# sim_latency_* metrics they feed.
ISSUE_NAMES = (
    "run_s", "setup_s", "peak_rss_mb", "failed_ops_ratio", "sim_goodput_mbps",
    "sim_repair_p50_s", "sim_repair_tail_s", "sim_reconnect_s",
    "sim_fct_p50_s", "sim_fct_tail_s",
    "sim.events", "sim.events_per_op", "sim.self_s",
    "net.l2.frames", "net.l2.self_s", "net.l2.drops",
    "net.wan.frames", "net.wan.self_s",
    "net.stack.packets", "net.stack.self_s", "net.stack.drops",
    "net.tcp.segments", "net.tcp.retransmits", "net.tcp.self_s",
    "core.tap.frames", "core.tap.self_s", "core.tap.events_per_frame",
    "core.driver.frames", "core.driver.self_s", "core.driver.punch_attempts",
    "core.driver.punch_success_ratio", "core.driver.repairs",
    "nat.frames", "nat.self_s", "nat.dropped_unsolicited",
    "stun.probes", "stun.self_s",
    "overlay.rpc.calls", "overlay.rpc.retries_per_call", "overlay.rpc.timeouts",
    "overlay.rpc.self_s",
    "overlay.rendezvous.registrations", "overlay.rendezvous.admission_rejects",
    "overlay.rendezvous.self_s",
    "overlay.can.ids_routed", "overlay.can.hops_per_id", "overlay.can.self_s",
    "core.hoststate.rows", "core.hoststate.bytes_per_endpoint", "core.hoststate.self_s",
    "net.fluid.solves", "net.fluid.flows_per_solve", "net.fluid.rate_changes",
    "net.fluid.self_s",
    "faults.injected", "obs.trace_overhead_ratio",
)


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "7",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def runs():
    out = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            proc = _run(workload, trace)
            assert proc.returncode == 0, proc.stderr
            lines = proc.stdout.strip().splitlines()
            out[workload, trace] = (json.loads(lines[-1]), "\n".join(lines[:-1]))
    return out


@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_declared_metric_is_emitted_with_its_unit(runs, trace, key):
    declared = {m["name"]: m["unit"] for m in SPEC[key]}
    for workload in WORKLOADS:
        metrics = runs[workload, trace][0]["metrics"]
        assert set(metrics) == set(declared), workload
        for name, unit in declared.items():
            assert metrics[name]["unit"] == unit, (workload, name)
            assert isinstance(metrics[name]["value"], float), (workload, name)


def test_every_issue_name_is_reported(runs):
    reported = " ".join(text + " " + " ".join(result["metrics"])
                        for result, text in runs.values())
    missing = [name for name in ISSUE_NAMES if name not in reported.split()]
    assert not missing


def test_every_op_passes_its_check(runs):
    for (workload, trace), (result, _text) in runs.items():
        assert result["attempted"] >= 1, workload
        assert result["failed"] == 0, (workload, trace)
        assert result["correct"], (workload, trace)


def test_tracing_leaves_the_simulation_unchanged(runs):
    for workload in WORKLOADS:
        untraced, traced = re.search(r"digest untraced (\w+) traced (\w+)",
                                     runs[workload, 1][1]).groups()
        plain = re.search(r"^digest (\w+) ", runs[workload, 0][1], re.M).group(1)
        assert untraced == traced == plain, workload


def test_traced_self_times_account_for_the_wall_time(runs):
    for workload in WORKLOADS:
        metrics = runs[workload, 1][0]["metrics"]
        self_total = sum(v["value"] for k, v in metrics.items() if k.endswith(".self_s"))
        wall = metrics["trace.wall_s"]["value"]
        residual = metrics["trace.residual_s"]["value"]
        assert residual >= 0.0, workload
        assert self_total + residual == pytest.approx(wall, rel=1e-6), workload


def test_fails_without_the_program_sources():
    bare = HERE / "out" / "bare-checkout"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("out", "__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        proc = _run(WORKLOADS[0], 0, cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
