"""The per-view differential that replaced the search battery.

The search battery swept each benchmark over the machine views of
:func:`~repro.verify.oracle.machine_variants` and held the search
allocators to the DP and the oracle there. With the search allocators
gone, :func:`~repro.verify.oracle.view_differentials` does that sweep for
the DP: on every view, the DP must fit the capacity, dominate every
baseline and equal the brute-force optimum where the instance is
enumerable. The ``schedule`` battery runs it for every benchmark, and
the ``--search`` flags are gone from the CLI.
"""

from __future__ import annotations

import json

import pytest

from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.verify.__main__ import build_parser, main
from repro.verify.harness import CaseReport
from repro.verify.oracle import (
    DifferentialReport,
    machine_variants,
    view_differentials,
)
from repro.verify.runner import SCHEDULE_BATTERY
from repro.verify.validator import ScheduleValidator

VIEWS = ["healthy", "degraded", "shard-0", "shard-1"]


@pytest.fixture(scope="module")
def config():
    return PimConfig(num_pes=16, iterations=1000)


@pytest.fixture(scope="module")
def reports(config):
    return view_differentials(synthetic_benchmark("cat"), config)


class TestMachineVariants:
    def test_healthy_degraded_and_shards(self, config):
        labels = [label for label, _ in machine_variants(config)]
        assert labels == VIEWS

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
        for label, report in reports.items():
            assert report.ok, (label, report.failures)

    def test_covers_every_variant(self, reports):
        assert list(reports) == VIEWS

    def test_search_profits_at_least_dp(self, reports):
        """Neither the exhaustive search nor the capacity-oblivious
        bound falls below the DP, and the DP tops every baseline."""
        for report in reports.values():
            profits = report.profits
            assert profits["oracle"] >= profits["dp"]
            assert profits["exhaustive"] >= profits["dp"]
            for name in ("all-edram", "greedy", "random"):
                assert profits["dp"] >= profits[name]

    def test_oracle_equality_when_enumerable(self, reports):
        assert all(r.exhaustive_checked for r in reports.values())
        for report in reports.values():
            assert report.profits["dp"] == report.profits["exhaustive"]

    def test_budget_ladder_is_monotone(self, config):
        """A larger enumeration budget checks a superset of the views
        exhaustively, and never changes the DP's profit."""
        graph = synthetic_benchmark("cat")
        previous_checked = set()
        dp_profits = None
        for limit in (1, 4, 16):
            ladder = view_differentials(graph, config, exhaustive_limit=limit)
            checked = {v for v, r in ladder.items() if r.exhaustive_checked}
            assert previous_checked <= checked
            assert all(
                (r.num_items <= limit) == r.exhaustive_checked
                for r in ladder.values()
            )
            profits = {v: r.profits["dp"] for v, r in ladder.items()}
            assert dp_profits in (None, profits)
            previous_checked, dp_profits = checked, profits
        assert previous_checked == set(VIEWS)

    def test_validator_battery_ran_clean(self, reports):
        for report in reports.values():
            assert report.failures == []

    def test_report_dict_shape(self, reports):
        payload = json.loads(json.dumps(reports["healthy"].as_dict()))
        assert payload["ok"] is True
        assert payload["exhaustive_checked"] is True
        assert set(payload) == {
            "num_items", "capacity_slots", "profits",
            "exhaustive_checked", "ok", "failures",
        }
        assert {"dp", "exhaustive", "oracle"} <= set(payload["profits"])

    def test_failures_flip_ok(self):
        report = DifferentialReport(num_items=1, capacity_slots=1)
        assert report.ok
        report.failures.append("dp profit 1 != brute-force optimum 2")
        assert not report.ok
        assert report.as_dict()["ok"] is False
        broken = CaseReport(
            battery="schedule", case="w/healthy", failures=["bad plan"]
        )
        assert not broken.ok


class TestSweepAndCli:
    def test_sweep_subset_green(self):
        args = build_parser().parse_args([
            "--benchmarks", "cat", "car", "--no-mutations",
        ])
        reports = SCHEDULE_BATTERY.run(args, ScheduleValidator())
        assert all(r.ok for r in reports), [r.describe() for r in reports]
        assert [r.case for r in reports] == ["cat", "car"]
        for report in reports:
            views = [
                entry.split(":")[0]
                for entry in report.facts["oracle"].split(",")
            ]
            assert views == VIEWS

    def test_verify_cli_search_flag(self, capsys):
        """The retired search flags are usage errors."""
        for flags in (["--search"], ["--search-budgets", "0", "100"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["--benchmarks", "cat", "--no-mutations", *flags])
            assert excinfo.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err

    def test_runner_wires_search_reports(self, capsys):
        """The JSON report carries the per-view oracle verdicts in the
        schedule battery, and no search battery."""
        code = main([
            "--benchmarks", "cat", "--allocators", "dp",
            "--no-mutations", "--json",
        ])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["ok"] is True
        assert "search" not in payload
        assert payload["schedule"][0]["facts"]["oracle"] == ",".join(
            f"{view}:exhaustive" for view in VIEWS
        )
