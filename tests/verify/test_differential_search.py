"""Acceptance tests for the search-allocator differential battery."""

from __future__ import annotations

import json

import pytest

from repro.pim.config import PimConfig
from repro.verify.__main__ import build_parser, main
from repro.verify.differential_search import (
    DEFAULT_BUDGET_LADDER,
    SEARCH_BATTERY,
    machine_variants,
    search_differential,
    search_verdict,
)
from repro.verify.harness import CaseReport
from repro.verify.validator import ScheduleValidator
from repro.graph.generators import synthetic_benchmark


@pytest.fixture(scope="module")
def config():
    return PimConfig(num_pes=16, iterations=1000)


@pytest.fixture(scope="module")
def reports(config):
    return search_differential(synthetic_benchmark("cat"), config)


class TestMachineVariants:
    def test_healthy_degraded_and_shards(self, config):
        labels = [label for label, _ in machine_variants(config)]
        assert labels == ["healthy", "degraded", "shard-0", "shard-1"]

    def test_variant_machines_shrink(self, config):
        variants = dict(machine_variants(config))
        assert variants["degraded"].num_pes == config.num_pes - 1
        assert (
            variants["shard-0"].num_pes + variants["shard-1"].num_pes
            == config.num_pes
        )

    def test_single_pe_machine_has_only_healthy(self):
        labels = [label for label, _ in machine_variants(PimConfig(num_pes=1))]
        assert labels == ["healthy"]


class TestSearchDifferential:
    def test_battery_is_green(self, reports):
        for report in reports:
            assert report.ok, report.describe()

    def test_covers_every_variant(self, reports):
        assert [r.case for r in reports] == [
            "cat/healthy", "cat/degraded", "cat/shard-0", "cat/shard-1",
        ]

    def test_search_profits_at_least_dp(self, reports):
        for report in reports:
            assert report.facts["anneal"] >= report.facts["dp"]
            assert report.facts["portfolio"] >= report.facts["dp"]

    def test_oracle_equality_when_enumerable(self, reports):
        for report in reports:
            if report.facts["mode"] == "exhaustive":
                assert report.facts["anneal"] == report.facts["exhaustive"]
                assert report.facts["oracle_engines_agree"] is True

    def test_budget_ladder_is_monotone(self, reports):
        for report in reports:
            ladder = report.facts["ladder"]
            profits = list(ladder.values())
            assert sorted(ladder) == list(ladder)
            assert profits == sorted(profits)
            assert set(ladder) == set(DEFAULT_BUDGET_LADDER)

    def test_validator_battery_ran_clean(self, reports):
        for report in reports:
            assert report.failures == []

    def test_report_dict_shape(self, reports):
        payload = json.loads(json.dumps(reports[0].as_dict()))
        assert payload["ok"] is True
        assert payload["case"] == "cat/healthy"
        assert set(payload["facts"]["ladder"]) == {
            str(b) for b in DEFAULT_BUDGET_LADDER
        }

    def test_failures_flip_ok(self):
        facts = dict(
            num_items=1, capacity_slots=1, dp=2,
            anneal=2, anneal_slots=1, portfolio=2, portfolio_slots=1,
            ladder={0: 2, 100: 2},
        )
        assert search_verdict(facts) == []
        assert search_verdict({**facts, "anneal": 1})  # below the DP seed
        assert search_verdict({**facts, "portfolio_slots": 2})  # infeasible
        assert search_verdict({**facts, "exhaustive": 3})  # not optimal
        assert search_verdict({**facts, "ladder": {0: 2, 100: 1}})
        assert search_verdict({**facts, "oracle_engines_agree": False})
        broken = CaseReport(
            battery="search", case="w/healthy", failures=["bad plan"]
        )
        assert not broken.ok


class TestSweepAndCli:
    def test_sweep_subset_green(self):
        args = build_parser().parse_args([
            "--benchmarks", "cat", "car", "--search-budgets", "0", "150",
        ])
        reports = SEARCH_BATTERY.run(args, ScheduleValidator())
        assert all(r.ok for r in reports), [r.describe() for r in reports]
        assert len(reports) == 8  # 2 benchmarks x 4 variants
        assert all(list(r.facts["ladder"]) == [0, 150] for r in reports)

    def test_verify_cli_search_flag(self, capsys):
        code = main([
            "--benchmarks", "cat", "--no-mutations",
            "--search", "--search-budgets", "0", "100",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "battery search   ok   [4/4]" in out

    def test_runner_wires_search_reports(self, capsys):
        code = main([
            "--benchmarks", "cat", "--allocators", "dp", "--no-oracle",
            "--no-mutations", "--search", "--search-budgets", "0", "100",
            "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert payload["search"][0]["case"] == "cat/healthy"
        assert len(payload["search"]) == 4
