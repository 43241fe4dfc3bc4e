"""Tenancy differential: isolation scenarios and the fused-dataflow stage."""

import json

import pytest

from repro.verify.differential_tenancy import (
    TENANCY_SCENARIOS,
    fused_verdict,
    run_scenario,
    scenario_verdict,
    tenancy_differential,
    verify_fused_model,
)
from repro.verify.harness import battery_ok

# Small-but-real sizes: 16 PEs carve into slices that still compile the
# fleet workloads, and 4 requests per tenant exercise multiple batches.
FAST = dict(num_pes=16, requests_per_tenant=4, iterations=3)


class TestScenarios:
    @pytest.mark.parametrize("scenario", TENANCY_SCENARIOS)
    def test_scenario_passes(self, scenario):
        report = run_scenario(scenario, **FAST)
        assert report.error is None
        assert report.mismatches == []
        assert report.failures == []
        assert report.ok, report.describe()

    def test_two_tenant_proves_distinct_plan_identity(self):
        report = run_scenario("two-tenant", **FAST)
        # Both tenants serve the SAME workload: one cached plan each.
        assert len(set(report.facts["workloads"].values())) == 1
        assert report.facts["cached_plans"] == 2
        assert scenario_verdict({"cached_plans": 1, "expected_plans": 2})

    def test_batches_actually_replayed(self):
        report = run_scenario("two-tenant", **FAST)
        assert report.facts["replayed_batches"] >= 2

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown tenancy scenario"):
            run_scenario("warp-tenant", **FAST)

    def test_describe_and_as_dict(self):
        report = run_scenario("degraded-tenant", **FAST)
        assert "degraded-tenant" in report.describe()
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["case"] == "degraded-tenant"
        assert set(payload["facts"]["workloads"]) == {"tenant-a", "tenant-b"}


class TestFusedStage:
    def test_alexnet_fused_plans_pass_differentials(self):
        report = verify_fused_model("alexnet")
        assert report.error is None
        assert report.ok, report.describe()
        facts = report.facts
        assert facts["fused_stages"] > 0
        assert facts["ops_absorbed"] > 0
        assert facts["delta_r"]["fused_ops_absorbed"] == facts["ops_absorbed"]
        assert fused_verdict({**facts, "work_conserved": False})

    def test_unknown_model_reported_not_raised(self):
        report = verify_fused_model("ghostnet")
        assert not report.ok
        assert "KeyError" in report.error


class TestBattery:
    def test_full_battery(self):
        reports = tenancy_differential(fused_models=("alexnet",), **FAST)
        assert battery_ok(reports), [r.describe() for r in reports]
        assert [r.case for r in reports] == [
            *TENANCY_SCENARIOS, "fused-alexnet"
        ]
        payload = json.loads(json.dumps([r.as_dict() for r in reports]))
        assert all(case["ok"] for case in payload)

    def test_empty_battery_is_not_ok(self):
        reports = tenancy_differential(scenarios=(), fused_models=())
        assert reports == []
        assert not battery_ok(reports)
