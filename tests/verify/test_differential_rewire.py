"""The live-rewire scenarios and the seeded randwired sweep.

Two layers under test: the verdict over hand-built facts (a failure in
any dimension — mismatch, cold repeat swap, validator error — must fail
the case) and the scenarios themselves run end-to-end on small graphs
(they must come back green against the full-unroll oracle).
"""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.graph.randwired import RandwiredSpec
from repro.pim.config import PimConfig
from repro.verify.harness import (
    CaseReport,
    Mismatch,
    battery_ok,
    expectation_failures,
)
from repro.verify.scenarios import (
    fleet_rewire_case,
    randwired_case,
    rewire_case,
    run_scenario,
    scenario_table,
)


def small_config() -> PimConfig:
    return PimConfig(num_pes=8, iterations=50)


def small_case(cut_point: str = "drain"):
    return rewire_case(
        "cat", "car", small_config(), cut_point=cut_point, iterations=8,
        queued=3,
    )


class TestReportVerdicts:
    def clean_case(self) -> dict:
        return {"graph_swaps": 3, "warm_recompiles": 0}

    def test_clean_case_is_ok(self):
        assert expectation_failures(small_case().expect, self.clean_case()) == []

    def test_mismatch_fails(self):
        report = CaseReport(battery="rewire", case="cat->cat-v2 [drain]")
        report.mismatches.append(Mismatch("", "makespan", 8, 9))
        assert not report.ok
        assert "makespan" in report.describe()

    def test_lost_request_fails(self):
        """A rewire that drops the queued requests fails at its own step."""
        case = small_case()

        def dropping_system():
            system = case.build()
            server = system.tier
            rewire = server.rewire

            def drop_then_rewire(workload, graph, cut_point):
                server.remove_queued(lambda r: r.workload == workload)
                return rewire(workload, graph, cut_point)

            server.rewire = drop_then_rewire
            return system

        report = run_scenario(dataclasses.replace(case, build=dropping_system))
        assert not report.ok
        assert report.failures[0].startswith(
            "step 7: rewire('cat', 'car', 'drain'): server books do not close"
        )

    def test_cold_repeat_swap_fails(self):
        assert expectation_failures(
            small_case().expect, {**self.clean_case(), "warm_recompiles": 2}
        )

    def test_validator_error_fails(self):
        report = CaseReport(
            battery="rewire", case="x", failures=["cold plan: pe overlap"]
        )
        assert not report.ok

    def test_error_fails(self):
        report = CaseReport(battery="rewire", case="x", error="boom")
        assert not report.ok
        assert "boom" in report.describe()

    def test_empty_randwired_battery_is_not_ok(self):
        assert not battery_ok([])
        assert battery_ok([CaseReport(battery="rewire", case="g")])
        assert not battery_ok(
            [CaseReport(battery="rewire", case="g", failures=["f"])]
        )

    def test_overall_report_aggregates(self):
        fleet = fleet_rewire_case("randwired-er").expect
        clean = {"served": 16, "plans": 2, "warm_recompiles": 0,
                 "duplicate_fleet_ids": [], "missing_fleet_ids": []}
        assert expectation_failures(fleet, clean) == []
        assert expectation_failures(fleet, {**clean, "served": 13})
        assert expectation_failures(fleet, {**clean, "missing_fleet_ids": [9]})
        assert expectation_failures(fleet, {**clean, "warm_recompiles": 1})
        reports = [
            CaseReport(battery="rewire", case="a"),
            CaseReport(battery="rewire", case="b", error="exploded"),
        ]
        assert not battery_ok(reports)

    def test_as_dict_is_json_serializable(self):
        report = CaseReport(
            battery="rewire", case="cat->car [drain] N=10",
            facts={"graph_swaps": 3, "warm_recompiles": 0},
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["case"] == "cat->car [drain] N=10"


class TestRewireCase:
    @pytest.mark.parametrize("cut_point", ("drain", "reroute"))
    def test_small_case_green(self, cut_point):
        case = small_case(cut_point)
        report = run_scenario(case)
        assert report.error is None
        assert report.mismatches == []
        assert report.facts["graph_swaps"] == 3
        assert report.facts["warm_recompiles"] == 0
        assert report.ok
        # Up to the swap: a drain serves the 3 queued requests on the old
        # plan, a reroute carries them across unserved.
        swap = [event[0] for event in case.events].index("rewire")
        upto_swap = run_scenario(
            dataclasses.replace(case, events=case.events[: swap + 1], expect={})
        )
        assert upto_swap.ok, upto_swap.describe()
        assert upto_swap.facts["served"] == (4 if cut_point == "drain" else 1)


class TestRandwiredBattery:
    def test_small_sweep_green(self):
        reports = [
            randwired_case(spec, small_config())
            for spec in (
                RandwiredSpec(kind="er", num_vertices=10, p=0.3, seed=0),
                RandwiredSpec(kind="ba", num_vertices=10, m=2, seed=0),
            )
        ]
        assert [r.failures for r in reports] == [[], []]
        assert battery_ok(reports)


class TestFullBattery:
    def test_rewire_differential_green(self):
        cases = [
            case for case in scenario_table(["cat"], small_config())
            if case.battery == "rewire" and not case.name.endswith(("s1", "s2"))
        ]
        reports = [case.run(None) for case in cases]
        assert [r.ok for r in reports] == [True] * len(reports)
        fleet = next(r for r in reports if r.case.startswith("fleet "))
        assert fleet.facts["warm_recompiles"] == 0
        assert fleet.facts["served"] == 16
        # 3 rewire cases, the fleet rewire, 1 seed x 3 randwired families
        assert len(reports) == 7
        assert battery_ok(reports)
