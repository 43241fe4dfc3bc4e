"""The scenario engine: its table, its per-step checks and the composed
cases no single battery combined."""

from __future__ import annotations

import dataclasses

import pytest

import repro.verify.scenarios as scenarios
from repro.pim.config import PimConfig
from repro.verify.scenarios import (
    Scenario,
    composed_cases,
    fleet_trace_case,
    run_scenario,
    scenario_table,
    server_system,
)

#: Every (battery, case) ``--scenarios`` printed before the engine, on
#: ``--all --benchmarks cat car flower --fleet-requests 200``.
FROZEN_CASES = {
    ("faults", "cat pe0@3 N=20"),
    ("faults", "car pe0@3 N=20"),
    ("faults", "flower pe0@3 N=20"),
    ("fleet", "4w x 4wl N=200"),
    ("tenancy", "two-tenant"),
    ("tenancy", "three-tenant"),
    ("tenancy", "degraded-tenant"),
    ("tenancy", "fused-alexnet"),
    ("tenancy", "fused-vgg16"),
    ("rewire", "cat->randwired-er [drain] N=20"),
    ("rewire", "randwired-er->randwired-ba [reroute] N=20"),
    ("rewire", "flower->randwired-ws [drain] N=20"),
    ("rewire", "fleet cat->randwired-er [reroute]"),
    *(
        ("rewire", f"randwired {kind}/n16/s{seed}")
        for kind in ("er", "ws", "ba") for seed in range(3)
    ),
}

CONFIG = PimConfig(num_pes=16, iterations=100)


def test_case_names_are_frozen(monkeypatch):
    """The table lists every case without building or running any."""

    def refuse(name):
        raise AssertionError(f"listing the table loaded {name!r}")

    monkeypatch.setattr(scenarios, "load_workload", refuse)
    table = scenario_table(["cat", "car", "flower"], PimConfig(), 200)
    names = [(case.battery, case.name) for case in table]
    assert len(set(names)) == len(names)
    assert FROZEN_CASES <= set(names)
    assert {battery for battery, _ in names} == {
        "faults", "fleet", "tenancy", "rewire", "composed"
    }


@pytest.mark.parametrize(
    "case", composed_cases(CONFIG), ids=lambda case: case.name
)
def test_composed_case_passes(case):
    report = run_scenario(case)
    assert report.ok, report.describe()
    assert report.facts["replayed_batches"] > 0


def server_case(*events, build=None, expect=None) -> Scenario:
    return Scenario(
        "composed", "probe",
        build or (lambda: server_system(CONFIG, scenarios._graphs(cat="cat"))),
        events, expect or {},
    )


class TestEngine:
    def test_first_failing_step_ends_the_run(self):
        def dropping():
            system = server_system(CONFIG, scenarios._graphs(cat="cat"))
            system.tier.step = system.tier.remove_queued
            return system

        report = run_scenario(server_case(
            ("submit", "cat"), ("submit", "cat"), ("pump",), ("submit", "cat"),
            ("drain",),
            build=dropping,
        ))
        assert report.failures == [
            "step 3: pump(): server books do not close: {'admitted': 2, "
            "'served': 0, 'shed': 0, 'failed': 0, 'queued': 0, "
            "'rejected_at_admission': 0, 'lost': 2}"
        ]
        assert report.facts == {}  # no end-of-run facts after a failed step

    def test_exception_names_its_step(self):
        report = run_scenario(server_case(("submit", "cat"), ("kill", "w0")))
        assert report.error.startswith("step 2: kill('w0'): AttributeError")
        report = run_scenario(server_case(("explode",)))
        assert report.error.startswith("step 1: explode(): AttributeError")

    def test_batch_on_the_wrong_graph_is_a_mismatch(self):
        """A session that serves another graph than the one the scenario
        put it on fails the replay at the step that served it."""

        def swapped():
            system = server_system(CONFIG, scenarios._graphs(cat="cat"))
            system.tier.set_graph_override("cat", scenarios.load_workload("car"))
            return system

        report = run_scenario(server_case(("submit", "cat", 20), ("pump",),
                                          build=swapped))
        assert not report.ok
        assert all(m.location.startswith("step 2: pump(): server")
                   for m in report.mismatches)

    def test_end_facts_are_held_to_the_expectation(self):
        report = run_scenario(server_case(
            *(("submit", "cat"),) * 3, ("drain",), expect={"served": 2}
        ))
        assert report.failures == ["served=3 (want 2)"]

    def test_prefix_of_a_scenario_is_a_scenario(self):
        case = composed_cases(CONFIG)[0]
        kinds = [event[0] for event in case.events]
        upto_rewire = case.events[: kinds.index("rewire") + 1]
        prefix = dataclasses.replace(case, events=upto_rewire, expect={})
        report = run_scenario(prefix)
        assert report.ok, report.describe()
        assert report.facts["faults_observed"] == 1


class TestFleetMutants:
    """Tier defects the fleet scenarios must catch."""

    def test_rewire_without_override_on_idle_shards_fails(self):
        """A rewire that installs no override on shards that never served
        the workload sends the rerouted requests, after the kill, to a
        survivor that loads the old graph."""
        case = next(c for c in composed_cases(CONFIG) if c.name.startswith("kill"))

        def forgetful():
            system = case.build()
            for server in system.servers.values():
                server.set_graph_override = lambda workload, graph: None
            return system

        report = run_scenario(dataclasses.replace(case, build=forgetful))
        assert not report.ok
        kill = [event[0] for event in case.events].index("kill")
        assert report.mismatches
        assert all(m.location.startswith(f"step {kill + 2}: drain()")
                   for m in report.mismatches)

    def test_result_served_to_no_caller_is_missing(self):
        """A pump that serves a request but returns it to no caller keeps
        the books closed; the fleet ids find it."""
        case = fleet_trace_case(32, workloads=("cat", "flower"), workers=2,
                                num_pes=32, batch_window=8)

        def hiding():
            system = case.build()
            pump = system.tier.pump
            system.tier.pump = lambda *args: pump(*args)[1:]
            return system

        report = run_scenario(dataclasses.replace(case, build=hiding))
        assert not report.ok
        assert report.failures[0].startswith("missing_fleet_ids=[")
