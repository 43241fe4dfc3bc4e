"""Tenancy scenarios (isolation) and the fused-dataflow stage."""

import json

import pytest

from repro.pim.config import PimConfig
from repro.verify.harness import battery_ok, expectation_failures
from repro.verify.oracle import machine_variants
from repro.verify.scenarios import (
    TENANCY_SCENARIOS,
    fused_stages,
    run_scenario,
    tenancy_case,
    verify_fused_model,
)

# Small-but-real sizes: 16 PEs carve into slices that still compile the
# fleet workloads, and 4 requests per tenant exercise multiple batches.
FAST = dict(num_pes=16, requests=4, iterations=3)


class TestScenarios:
    @pytest.mark.parametrize("scenario", list(TENANCY_SCENARIOS))
    def test_scenario_passes(self, scenario):
        report = run_scenario(tenancy_case(scenario, **FAST))
        assert report.error is None
        assert report.mismatches == []
        assert report.failures == []
        assert report.ok, report.describe()

    def test_two_tenant_proves_distinct_plan_identity(self):
        case = tenancy_case("two-tenant", **FAST)
        report = run_scenario(case)
        # Both tenants serve the SAME workload: one cached plan each.
        assert len(set(TENANCY_SCENARIOS["two-tenant"].values())) == 1
        assert report.facts["plans"] == 2
        assert expectation_failures(case.expect, {**report.facts, "plans": 1})

    def test_batches_actually_replayed(self):
        report = run_scenario(tenancy_case("two-tenant", **FAST))
        assert report.facts["replayed_batches"] >= 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown tenancy scenario"):
            tenancy_case("warp-tenant", **FAST)

    def test_describe_and_as_dict(self):
        report = run_scenario(tenancy_case("degraded-tenant", **FAST))
        assert "degraded-tenant" in report.describe()
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["case"] == "degraded-tenant"
        assert payload["facts"]["served"] == 8


class TestFusedStage:
    def test_alexnet_fused_plans_pass_differentials(self):
        report = verify_fused_model("alexnet")
        assert report.error is None
        assert report.ok, report.describe()
        facts = report.facts
        assert facts["fused_stages"] > 0
        assert facts["ops_absorbed"] > 0
        assert facts["delta_r"]["fused_ops_absorbed"] == facts["ops_absorbed"]
        assert expectation_failures(
            {"work_conserved": True}, {**facts, "work_conserved": False}
        )

    def test_suboptimal_dp_fails_the_oracle_on_every_view(self, monkeypatch):
        """A dp that caches nothing still emits valid plans; only the
        oracle stage can see it, and it must on every machine view."""
        import repro.core.allocation as allocation_module

        def broken_dp(problem):
            result = allocation_module.all_edram_allocate(problem)
            result.method = "dp"
            return result

        monkeypatch.setitem(allocation_module.ALLOCATORS, "dp", broken_dp)
        report = verify_fused_model("alexnet")
        assert not report.ok
        flagged = {
            failure.split(" ")[0]
            for failure in report.failures
            if " oracle: " in failure
        }
        views = machine_variants(PimConfig(num_pes=16))
        assert flagged == {label for label, _ in views}
        assert not any(" plan: " in failure for failure in report.failures)

    def test_unknown_model_reported_not_raised(self):
        report = verify_fused_model("ghostnet")
        assert not report.ok
        assert "KeyError" in report.error


class TestBattery:
    def test_full_battery(self):
        reports = [
            run_scenario(tenancy_case(name, **FAST))
            for name in TENANCY_SCENARIOS
        ]
        reports.append(fused_stages()[0].run(None))
        assert battery_ok(reports), [r.describe() for r in reports]
        assert [r.case for r in reports] == [
            *TENANCY_SCENARIOS, "fused-alexnet"
        ]
        assert {r.battery for r in reports} == {"tenancy"}
        payload = json.loads(json.dumps([r.as_dict() for r in reports]))
        assert all(case["ok"] for case in payload)

    def test_empty_battery_is_not_ok(self):
        assert not battery_ok([])
