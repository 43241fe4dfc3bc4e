"""Fleet differential: replay equivalence, conservation, warm-everywhere."""

from __future__ import annotations

import json

import pytest

from repro.verify.differential_fleet import fleet_differential, fleet_verdict
from repro.verify.harness import CaseReport, Mismatch

WORKLOADS = ("cat", "car", "flower", "speech-1")


@pytest.fixture(scope="module")
def report() -> CaseReport:
    # Synthetic-benchmark workloads keep the module-scoped run fast; the
    # trace still crosses a worker kill at the halfway point.
    return fleet_differential(
        workloads=WORKLOADS, requests=160, batch_window=8, seed=0
    )


class TestCleanRun:
    def test_overall_ok(self, report):
        assert report.error is None
        assert report.ok, report.describe()

    def test_replay_found_no_mismatches(self, report):
        assert report.mismatches == []
        assert report.facts["replayed_batches"] > 0

    def test_conservation_across_kill(self, report):
        assert report.facts["killed_worker"] == "worker-3"
        assert report.facts["lost"] == 0
        assert report.facts["served"] == 160
        assert report.facts["duplicate_fleet_ids"] == []
        assert report.facts["missing_fleet_ids"] == []

    def test_warm_everywhere(self, report):
        assert report.facts["store_plans"] == len(WORKLOADS)
        assert report.facts["fleet_compiles"] == len(WORKLOADS)
        assert report.facts["cold_replica_compiles"] == 0
        assert report.facts["cold_replica_disk_hits"] == len(WORKLOADS)

    def test_serializes_and_describes(self, report):
        payload = json.loads(json.dumps(report.as_dict()))
        assert payload["ok"] is True
        assert payload["facts"]["lost"] == 0
        assert "ok" in report.describe()


class TestReportVerdicts:
    def _clean(self) -> dict:
        return dict(
            workloads=2,
            lost=0,
            duplicate_fleet_ids=[],
            missing_fleet_ids=[],
            store_plans=2,
            fleet_compiles=2,
            cold_replica_compiles=0,
            cold_replica_disk_hits=2,
        )

    def test_clean_is_ok(self):
        assert fleet_verdict(self._clean()) == []

    def test_mismatch_fails(self):
        report = CaseReport(battery="fleet", case="2w x 2wl N=10")
        report.mismatches.append(
            Mismatch("w batch 1 request 2", "sim_latency", 11, 10)
        )
        assert not report.ok
        assert "sim_latency" in report.describe()

    def test_lost_request_fails(self):
        assert fleet_verdict({**self._clean(), "lost": 1})

    def test_duplicate_or_missing_ids_fail(self):
        assert fleet_verdict({**self._clean(), "duplicate_fleet_ids": [7]})
        assert fleet_verdict({**self._clean(), "missing_fleet_ids": [3]})

    def test_extra_compiles_fail(self):
        # someone recompiled a warm plan
        assert fleet_verdict({**self._clean(), "fleet_compiles": 3})
        # the store was not warm
        assert fleet_verdict({**self._clean(), "cold_replica_compiles": 1})

    def test_error_fails(self):
        report = CaseReport(battery="fleet", case="x", error="Boom: broke")
        assert not report.ok
        assert "ERROR" in report.describe()


class TestGuards:
    def test_uneven_split_is_reported_not_raised(self):
        report = fleet_differential(
            workloads=("cat",), num_workers=3, num_pes=64, requests=10
        )
        assert not report.ok
        assert "divide evenly" in report.error
