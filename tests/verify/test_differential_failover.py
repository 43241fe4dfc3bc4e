"""The fault scenarios: failover equals a cold compile on the degraded
machine, and a warm repeat of the fault recompiles nothing."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_VAULT
from repro.verify.__main__ import main
from repro.verify.harness import CaseReport, Mismatch, expectation_failures
from repro.verify.scenarios import fault_case, run_scenario


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16, iterations=100)


def run_cli(capsys, *flags):
    code = main([
        "--benchmarks", "cat", "--pes", "16", "--iterations", "100",
        "--allocators", "dp", "--no-oracle", "--no-mutations", "--json",
        "--fleet-requests", "32", *flags,
    ])
    return code, json.loads(capsys.readouterr().out)


class TestFailoverDifferential:
    def test_pe_fault_differential_is_clean(self, machine):
        report = run_scenario(fault_case("cat", machine))
        assert report.ok, report.describe()
        assert report.mismatches == []
        # both sessions met the fault and failed over once each ...
        assert report.facts["faults_observed"] == 2
        assert report.facts["failovers"] == 2
        # ... and the second found the degraded plan warm
        assert report.facts["warm_recompiles"] == 0
        assert report.facts["plans"] == 2
        assert report.failures == []  # the cold degraded plan validates
        assert "ok" in report.describe()

    def test_vault_fault_differential_is_clean(self, machine):
        report = run_scenario(
            fault_case("cat", machine, FAULT_UNIT_VAULT, 2, 1, 10)
        )
        assert report.ok, report.describe()
        assert report.case == "cat vault2@1 N=10"

    def test_shared_cache_and_no_warm_check(self, machine):
        """The prefix before the warm repeat: one failover, and the healthy
        and degraded plans both land in the server's cache."""
        case = fault_case("cat", machine)
        prefix = dataclasses.replace(
            case, events=case.events[:3], expect={"failovers": 1, "plans": 2}
        )
        report = run_scenario(prefix)
        assert report.ok, report.describe()
        assert report.facts["warm_recompiles"] == 0

    def test_invalid_unit_rejected(self, machine):
        with pytest.raises(ValueError):
            fault_case("cat", machine, unit="gpu")

    def test_unreachable_fault_flags_vacuous_scenario(self, machine):
        """A fault id outside the machine never fires: the expectation
        flags the vacuous scenario instead of reporting a hollow pass."""
        report = run_scenario(
            fault_case("cat", machine, unit_id=machine.num_pes + 5)
        )
        assert not report.ok
        assert report.error is None
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

    def test_ok_requires_exactly_one_failover(self, machine):
        expect = fault_case("cat", machine).expect
        clean = {"faults_observed": 2, "failovers": 2, "warm_recompiles": 0}
        assert expectation_failures(expect, clean) == []
        # the fault never fired: the scenario is vacuous
        assert expectation_failures(
            expect, {**clean, "faults_observed": 0, "failovers": 0}
        )
        # the warm repeat paid a compile
        assert expectation_failures(expect, {**clean, "warm_recompiles": 1})


class TestRunnerIntegration:
    def test_verify_workload_populates_failover(self, capsys):
        code, payload = run_cli(capsys, "--scenarios")
        assert code == 0
        assert payload["ok"] is True
        faults = [c for c in payload["scenarios"] if c["battery"] == "faults"]
        assert [case["case"] for case in faults] == [
            "cat pe0@3 N=20", "cat vault2@1 N=10"
        ]
        assert all(case["ok"] for case in faults)

    def test_failover_off_by_default(self, capsys):
        code, payload = run_cli(capsys)
        assert code == 0
        assert payload["scenarios"] is None
