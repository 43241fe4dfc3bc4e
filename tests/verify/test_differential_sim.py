"""Tests for the full-vs-steady simulation differential check."""

import json

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.verify.__main__ import main
from repro.verify.differential_sim import (
    DEFAULT_SIM_ITERATIONS,
    differential_simulate,
    sim_differential_battery,
)
from repro.verify.harness import CaseReport, Mismatch, battery_ok


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16)


@pytest.fixture(scope="module")
def flower_plan(machine):
    return ParaConv(machine).run(synthetic_benchmark("flower"))


def run_cli(capsys, *flags):
    code = main([
        "--benchmarks", "cat", "--no-oracle", "--no-mutations", "--json",
        *flags,
    ])
    return code, json.loads(capsys.readouterr().out)


class TestDifferentialSimulate:
    def test_engines_agree(self, machine, flower_plan):
        report = differential_simulate(
            flower_plan, config=machine, iterations=300
        )
        assert report.ok
        assert report.mismatches == []
        assert report.case == "flower N=300"
        assert "ok" in report.describe()

    def test_convergence_metadata_captured(self, machine, flower_plan):
        report = differential_simulate(
            flower_plan, config=machine, iterations=1000
        )
        converged = report.facts["converged_round"]
        assert converged is not None
        assert report.facts["rounds_fast_forwarded"] > 0
        assert f"converged_round={converged}" in report.describe()

    def test_battery_covers_every_count(self, machine, flower_plan):
        reports = sim_differential_battery(
            flower_plan, config=machine, iteration_counts=(1, 20)
        )
        assert [r.case for r in reports] == ["flower N=1", "flower N=20"]
        assert all(r.ok for r in reports)

    def test_default_counts_span_regimes(self):
        assert DEFAULT_SIM_ITERATIONS == (1, 20, 1000)

    def test_as_dict_round_trips_mismatches(self):
        report = CaseReport(battery="sim", case="x N=10")
        report.mismatches.append(Mismatch("", "busy_units", 10, 11))
        assert not report.ok
        payload = report.as_dict()
        assert payload["ok"] is False
        assert payload["mismatches"][0]["field"] == "busy_units"
        assert "FAIL" in report.describe()
        assert "busy_units" in report.describe()


class TestRunnerIntegration:
    def test_verify_workload_runs_sim_stage(self, capsys):
        code, payload = run_cli(
            capsys, "--sim", "--allocators", "dp", "greedy",
            "--sim-iterations", "1", "20",
        )
        assert code == 0
        assert [case["case"] for case in payload["sim"]] == [
            "cat/dp N=1", "cat/dp N=20", "cat/greedy N=1", "cat/greedy N=20",
        ]
        assert all(case["ok"] for case in payload["sim"])

    def test_sim_stage_failure_fails_workload(self, machine, flower_plan):
        reports = sim_differential_battery(
            flower_plan, config=machine, iteration_counts=(1,)
        )
        assert battery_ok(reports)
        # Plant a mismatch: the battery verdict must flip to failing.
        reports[0].mismatches.append(Mismatch("", "busy_units", 1, 2))
        assert not battery_ok(reports)

    def test_sim_stage_off_by_default(self, capsys):
        code, payload = run_cli(capsys, "--allocators", "dp")
        assert code == 0
        assert payload["sim"] is None
        assert payload["schedule"][0]["case"] == "cat"
