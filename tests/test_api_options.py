"""ConnectOptions/TransferOptions bundles and their deprecated aliases.

Every connect/transfer entry point (driver.connect, connect_by_name,
open_transfer, ttcp_transfer, netperf_stream, ApacheBench) accepts a
typed ``options=`` bundle; the scattered legacy keywords still work but
emit a DeprecationWarning and fold into the bundle (explicit keyword
wins over the same field in ``options=``).
"""

import warnings

import pytest

from repro import ConnectOptions, Simulator, TransferOptions, WavnetEnvironment
from repro.apps.ab import ApacheBench
from repro.apps.ttcp import ttcp_transfer
from repro.core.options import UNSET
from repro.net.addresses import IPv4Address
from repro.scenarios.builder import host_pair


def test_top_level_api_surface():
    import repro

    for name in ("WavnetEnvironment", "WavnetDriver", "ExperimentSpec",
                 "Sweep", "SweepRunner", "FaultPlan", "FaultInjector",
                 "run_sweep", "ConnectOptions", "TransferOptions",
                 "Simulator", "NatType"):
        assert name in repro.__all__
        assert getattr(repro, name) is not None


def test_legacy_kwarg_folds_with_warning():
    with pytest.warns(DeprecationWarning, match=r"connect\(allow_relay"):
        opts = ConnectOptions.coerce(None, "connect",
                                     allow_relay=False, timeout=UNSET)
    assert opts.allow_relay is False
    assert opts.timeout is None  # untouched field keeps its default


def test_explicit_legacy_kwarg_wins_over_options_field():
    with pytest.warns(DeprecationWarning, match="cc="):
        opts = TransferOptions.coerce(TransferOptions(cc="reno"), "x",
                                      cc="bbr", fidelity=UNSET)
    assert opts.cc == "bbr"


def test_options_path_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        opts = TransferOptions.coerce(TransferOptions(fidelity="fluid"),
                                      "x", fidelity=UNSET, cc=UNSET)
    assert opts.fidelity == "fluid"


def test_wrong_options_type_raises():
    with pytest.raises(TypeError, match="TransferOptions"):
        TransferOptions.coerce(ConnectOptions(), "open_transfer")


def test_ttcp_legacy_fidelity_warns():
    sim = Simulator(seed=1)
    a, _b, _link = host_pair(sim)
    gen = ttcp_transfer(a, IPv4Address("10.0.0.2"), 1000, fidelity="packet")
    with pytest.warns(DeprecationWarning, match="ttcp_transfer"):
        next(gen)  # generator body (and the coerce) runs on first advance
    gen.close()


def test_apachebench_legacy_fidelity_warns():
    sim = Simulator(seed=1)
    a, _b, _link = host_pair(sim)
    with pytest.warns(DeprecationWarning, match="ApacheBench"):
        ApacheBench(a, IPv4Address("10.0.0.2"), fidelity="packet")


def test_driver_legacy_connect_kwargs_still_work():
    sim = Simulator(seed=9)
    env = WavnetEnvironment(sim)
    env.add_host("a")
    env.add_host("b")
    env.up()
    driver = env.hosts["a"].driver
    with pytest.warns(DeprecationWarning, match="connect_by_name"):
        conn = sim.run_coro(driver.connect_by_name("b", allow_relay=True))
    assert conn.usable


def test_driver_connect_options_bundle():
    sim = Simulator(seed=9)
    env = WavnetEnvironment(sim)
    env.add_host("a")
    env.add_host("b")
    env.up()
    driver = env.hosts["a"].driver
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        conn = sim.run_coro(driver.connect_by_name(
            "b", options=ConnectOptions(allow_relay=False)))
    assert conn.usable and not conn.relayed


def test_repair_loop_emits_no_deprecation_warning():
    """Self-healing repairs connect through the options bundle: a churn
    run that repairs tunnels raises no DeprecationWarning from repro's
    own modules."""
    import os

    import repro
    from repro.scenarios.churn import churn_recovery

    package = os.path.dirname(repro.__file__) + os.sep
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        _sim, payload = churn_recovery(seed=0)
    assert payload["repairs"] > 0
    ours = [str(w.message) for w in caught
            if issubclass(w.category, DeprecationWarning)
            and w.filename.startswith(package)]
    assert ours == []
