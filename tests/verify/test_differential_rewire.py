"""The live-rewire differential battery and its verdicts.

Two layers under test: the rewire verdict over hand-built facts (a
failure in any dimension — mismatch, lost request, cold repeat swap,
validator error — must fail the case) and the battery itself run
end-to-end on small graphs (it must come back green against the
full-unroll oracle).
"""

from __future__ import annotations

import json

import pytest

from repro.graph.generators import synthetic_benchmark
from repro.graph.randwired import RandwiredSpec
from repro.pim.config import PimConfig
from repro.verify.differential_rewire import (
    randwired_property_battery,
    rewire_case,
    rewire_differential,
    rewire_verdict,
)
from repro.verify.harness import CaseReport, Mismatch, battery_ok


def small_config() -> PimConfig:
    return PimConfig(num_pes=8, iterations=50)


class TestReportVerdicts:
    def clean_case(self) -> dict:
        return {"lost": 0, "repeat_recompiles": 0}

    def test_clean_case_is_ok(self):
        assert rewire_verdict(self.clean_case()) == []

    def test_mismatch_fails(self):
        report = CaseReport(battery="rewire", case="cat->cat-v2 [drain]")
        report.mismatches.append(Mismatch("", "makespan", 8, 9))
        assert not report.ok
        assert "makespan" in report.describe()

    def test_lost_request_fails(self):
        assert rewire_verdict({**self.clean_case(), "lost": 1})

    def test_cold_repeat_swap_fails(self):
        assert rewire_verdict({**self.clean_case(), "repeat_recompiles": 2})

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
        fleet = {"lost": 0, "repeat_warm": True}
        assert rewire_verdict(fleet) == []
        assert rewire_verdict({**fleet, "lost": 3})
        assert rewire_verdict({**fleet, "repeat_warm": False})
        reports = [
            CaseReport(battery="rewire", case="a"),
            CaseReport(battery="rewire", case="b", error="exploded"),
        ]
        assert not battery_ok(reports)

    def test_as_dict_is_json_serializable(self):
        report = CaseReport(
            battery="rewire", case="cat->car [drain] N=10",
            facts={"lost": 0, "repeat_recompiles": 0},
        )
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["case"] == "cat->car [drain] N=10"


class TestRewireCase:
    @pytest.mark.parametrize("cut_point", ("drain", "reroute"))
    def test_small_case_green(self, cut_point):
        report = rewire_case(
            synthetic_benchmark("cat"),
            synthetic_benchmark("car"),
            small_config(),
            cut_point=cut_point,
            iterations=8,
            queued=3,
        )
        assert report.error is None
        assert report.mismatches == []
        assert report.facts["lost"] == 0
        assert report.facts["repeat_recompiles"] == 0
        if cut_point == "drain":
            assert report.facts["drained"] == 3
        else:
            assert report.facts["rerouted"] == 3
        assert report.ok


class TestRandwiredBattery:
    def test_small_sweep_green(self):
        reports = randwired_property_battery(
            config=small_config(),
            specs=[
                RandwiredSpec(kind="er", num_vertices=10, p=0.3, seed=0),
                RandwiredSpec(kind="ba", num_vertices=10, m=2, seed=0),
            ],
            seeds=1,
        )
        assert [r.failures for r in reports] == [[], []]
        assert battery_ok(reports)


class TestFullBattery:
    def test_rewire_differential_green(self):
        reports = rewire_differential(
            config=small_config(), iterations=8, seeds=1
        )
        assert [r.ok for r in reports] == [True] * len(reports)
        fleet = next(r for r in reports if r.case.startswith("fleet "))
        assert fleet.facts["lost"] == 0
        assert fleet.facts["repeat_warm"] is True
        # 3 rewire cases, the fleet rewire, 1 seed x 3 randwired families
        assert len(reports) == 7
        assert battery_ok(reports)
