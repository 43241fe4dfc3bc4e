"""The fleet trace scenario: replay equivalence, conservation across a
worker kill, warm everywhere."""

from __future__ import annotations

import json

import pytest

from repro.verify.harness import CaseReport, Mismatch, expectation_failures
from repro.verify.scenarios import fleet_trace_case, run_scenario

WORKLOADS = ("cat", "car", "flower", "speech-1")


@pytest.fixture(scope="module")
def case():
    # Synthetic-benchmark workloads keep the module-scoped run fast; the
    # trace still crosses a worker kill at the halfway point.
    return fleet_trace_case(160, workloads=WORKLOADS, batch_window=8)


@pytest.fixture(scope="module")
def report(case) -> CaseReport:
    return run_scenario(case)


class TestCleanRun:
    def test_overall_ok(self, report):
        assert report.error is None
        assert report.ok, report.describe()

    def test_replay_found_no_mismatches(self, report):
        assert report.mismatches == []
        assert report.facts["replayed_batches"] > 0

    def test_conservation_across_kill(self, case, report):
        assert ("kill", "worker-3") in case.events
        assert report.facts["workers_lost"] == 1
        assert report.facts["served"] == 160
        assert report.facts["shed"] == 0
        assert report.facts["duplicate_fleet_ids"] == []
        assert report.facts["missing_fleet_ids"] == []

    def test_warm_everywhere(self, report):
        assert report.facts["plans"] == len(WORKLOADS)
        assert report.facts["warm_recompiles"] == 0
        assert report.facts["cold_replica_compiles"] == 0
        assert report.facts["cold_replica_disk_hits"] == len(WORKLOADS)

    def test_serializes_and_describes(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["facts"]["served"] == 160
        assert "ok" in report.describe()


class TestReportVerdicts:
    def _clean(self, case) -> dict:
        return {name: want for name, want in case.expect.items()}

    def test_clean_is_ok(self, case):
        assert expectation_failures(case.expect, self._clean(case)) == []

    def test_mismatch_fails(self):
        report = CaseReport(battery="fleet", case="2w x 2wl N=10")
        report.mismatches.append(
            Mismatch("w batch 1 request 2", "sim_latency", 11, 10)
        )
        assert not report.ok
        assert "sim_latency" in report.describe()

    def test_lost_request_fails(self, case):
        assert expectation_failures(
            case.expect, {**self._clean(case), "served": 159}
        )

    def test_duplicate_or_missing_ids_fail(self, case):
        assert expectation_failures(
            case.expect, {**self._clean(case), "duplicate_fleet_ids": [7]}
        )
        assert expectation_failures(
            case.expect, {**self._clean(case), "missing_fleet_ids": [3]}
        )

    def test_extra_compiles_fail(self, case):
        # someone recompiled a warm plan
        assert expectation_failures(
            case.expect, {**self._clean(case), "warm_recompiles": 1}
        )
        # the store was not warm
        assert expectation_failures(
            case.expect, {**self._clean(case), "cold_replica_compiles": 1}
        )

    def test_error_fails(self):
        report = CaseReport(battery="fleet", case="x", error="Boom: broke")
        assert not report.ok
        assert "ERROR" in report.describe()


class TestGuards:
    def test_uneven_split_is_reported_not_raised(self):
        report = run_scenario(
            fleet_trace_case(10, workloads=("cat",), workers=3, num_pes=64)
        )
        assert not report.ok
        assert report.error.startswith("build: ")
        assert "divide evenly" in report.error
