"""Golden drift detection for the serving tier's metrics.

One seeded fleet trace (two SLO classes, deadline shedding, admission
backpressure, a mid-run worker kill) is served and every registry it
leaves behind, router and shards, is frozen in
``tests/golden/fleet_metrics.json``: each counter and gauge, and for
each simulated-time histogram its count, total, min, max and reservoir
samples (past the 4096-sample reservoir, so the Algorithm R draws are
pinned too). Wall-clock histograms pin their count only. A failing test
here means what the serving tier records moved; if the move is
intentional, bless it with::

    PYTHONPATH=src python -m tests.golden.regen

and review the resulting fixture diff like any other code change.
"""

from __future__ import annotations

import pytest

from tests.golden.regen import (
    FLEET_KILL,
    FLEET_METRICS_PATH,
    FLEET_REQUESTS,
    FLEET_SEED,
    FLEET_WORKLOADS,
    GOLDEN_FORMAT_VERSION,
    fleet_registries,
    load_golden,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.regen"


@pytest.fixture(scope="module")
def golden():
    assert FLEET_METRICS_PATH.is_file(), (
        f"missing fixture {FLEET_METRICS_PATH}; {REGEN_HINT}"
    )
    return load_golden(FLEET_METRICS_PATH)


@pytest.fixture(scope="module")
def actual():
    return fleet_registries()


class TestFixtureShape:
    def test_trace_parameters(self, golden):
        assert golden["format_version"] == GOLDEN_FORMAT_VERSION
        assert golden["workloads"] == list(FLEET_WORKLOADS)
        assert golden["requests"] == FLEET_REQUESTS
        assert golden["seed"] == FLEET_SEED
        assert golden["kill"] == FLEET_KILL

    def test_trace_reaches_every_recording_path(self, golden):
        router = golden["registries"]["router"]
        counters = router["counters"]
        assert counters["fleet.workers_lost"] == 1
        assert counters["fleet.requests_rerouted"] > 0
        assert counters["fleet.requests_shed"] > 0
        assert counters["fleet.requests_rejected"] > 0
        assert any(
            registry["counters"].get("requests_rejected", 0) > 0
            for name, registry in golden["registries"].items()
            if name != "router"
        )
        latency = router["histograms"]["fleet.latency_units"]
        assert latency["count"] > latency["samples"] == 4096


@pytest.mark.parametrize(
    "registry", ["router", "worker-0", "worker-1", "worker-2", "worker-3"]
)
def test_registry_matches_golden(registry, golden, actual):
    expected = golden["registries"][registry]
    got = actual[registry]
    drifted = [
        f"{kind} {name}: golden={expected[kind].get(name)!r} "
        f"actual={got[kind].get(name)!r}"
        for kind in ("counters", "gauges", "histograms")
        for name in sorted(set(expected[kind]) | set(got[kind]))
        if expected[kind].get(name) != got[kind].get(name)
    ]
    assert not drifted, (
        f"fleet metrics drift in {registry!r}: "
        + "; ".join(drifted) + f"; {REGEN_HINT}"
    )
