"""Tests for the runtime failover fault-injection differential."""

from __future__ import annotations

import json

import pytest

from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_VAULT
from repro.runtime.plan_cache import PlanCache
from repro.verify.__main__ import main
from repro.verify.differential_failover import (
    failover_differential,
    failover_verdict,
)
from repro.verify.harness import CaseReport, Mismatch


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16, iterations=100)


@pytest.fixture(scope="module")
def graph():
    return synthetic_benchmark("cat")


def run_cli(capsys, *flags):
    code = main([
        "--benchmarks", "cat", "--pes", "16", "--iterations", "100",
        "--allocators", "dp", "--no-oracle", "--no-mutations", "--json",
        *flags,
    ])
    return code, json.loads(capsys.readouterr().out)


class TestFailoverDifferential:
    def test_pe_fault_differential_is_clean(self, graph, machine):
        report = failover_differential(graph, machine, iterations=20)
        assert report.ok, report.describe()
        assert report.mismatches == []
        assert report.facts["faults_observed"] == 1
        assert report.facts["failovers"] == 1
        # second strike hit the cache, and the fault trace still replays
        assert report.facts["warm_recompiles"] == 0
        assert report.facts["warm_faults"] == 1
        assert report.failures == []  # the cold degraded plan validates
        assert "ok" in report.describe()

    def test_vault_fault_differential_is_clean(self, graph, machine):
        report = failover_differential(
            graph,
            machine,
            unit=FAULT_UNIT_VAULT,
            unit_id=2,
            fault_iteration=1,
            iterations=10,
        )
        assert report.ok, report.describe()
        assert report.case == "cat vault2@1 N=10"

    def test_shared_cache_and_no_warm_check(self, graph, machine):
        cache = PlanCache(capacity=8)
        report = failover_differential(
            graph, machine, cache=cache, check_warm=False
        )
        assert report.ok
        assert "warm_recompiles" not in report.facts
        assert "warm_faults" not in report.facts
        # healthy + degraded plans both landed in the shared cache
        assert cache.stats.misses == 2

    def test_invalid_unit_rejected(self, graph, machine):
        with pytest.raises(ValueError):
            failover_differential(graph, machine, unit="gpu")

    def test_unreachable_fault_flags_vacuous_scenario(self, machine):
        """A fault id outside the machine never fires: the differential
        must flag the vacuous scenario (faults_observed == 0) instead of
        reporting a hollow pass."""
        graph = synthetic_benchmark("cat")
        report = failover_differential(
            graph, machine, unit_id=machine.num_pes + 5
        )
        assert not report.ok
        assert report.facts["faults_observed"] == 0
        assert report.facts["failovers"] == 0
        assert "FAIL" in report.describe()

    def test_as_dict_round_trips_fields(self):
        report = CaseReport(battery="faults", case="x pe0@3 N=20")
        report.facts.update(faults_observed=1, failovers=1)
        report.mismatches.append(Mismatch("", "busy_units", 2, 1))
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is False
        assert payload["facts"]["failovers"] == 1
        assert payload["mismatches"][0]["field"] == "busy_units"
        assert "busy_units" in report.describe()

    def test_ok_requires_exactly_one_failover(self):
        # the fault never fired: the scenario is vacuous
        assert failover_verdict({"faults_observed": 0, "failovers": 0})
        clean = {"faults_observed": 1, "failovers": 1}
        assert failover_verdict(clean) == []
        # the warm repeat paid a compile
        assert failover_verdict({**clean, "warm_recompiles": 1})
        assert failover_verdict({**clean, "warm_faults": 0})


class TestRunnerIntegration:
    def test_verify_workload_populates_failover(self, capsys):
        code, payload = run_cli(capsys, "--faults")
        assert code == 0
        assert payload["ok"] is True
        assert [case["case"] for case in payload["faults"]] == [
            "cat pe0@3 N=20"
        ]
        assert payload["faults"][0]["ok"] is True

    def test_failover_off_by_default(self, capsys):
        code, payload = run_cli(capsys)
        assert code == 0
        assert payload["faults"] is None
