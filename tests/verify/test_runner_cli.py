"""Sweep runner and CLI — including the headline acceptance sweep."""

import json

import pytest

from repro.core.allocation import ALLOCATORS
from repro.graph.generators import BENCHMARK_SIZES, synthetic_benchmark
from repro.pim.config import PimConfig
from repro.verify.__main__ import build_parser, main
from repro.verify.oracle import MAX_EXHAUSTIVE_LIMIT
from repro.verify.runner import (
    BATTERIES,
    run_verification_sweep,
    verify_workload,
)


@pytest.fixture(scope="module")
def sweep():
    """One full-battery sweep shared by every assertion below (~2 s)."""
    return run_verification_sweep(config=PimConfig(num_pes=16))


class TestAcceptanceSweep:
    def test_sweep_is_clean(self, sweep):
        assert sweep.ok, sweep.summary()

    def test_covers_all_benchmarks(self, sweep):
        assert {w.workload for w in sweep.workloads} == set(BENCHMARK_SIZES)

    def test_zero_validator_errors_everywhere(self, sweep):
        """Acceptance: 12 benchmarks x every registered allocator, 0 errors."""
        for workload in sweep.workloads:
            assert set(workload.reports) == set(ALLOCATORS)
            for name, report in workload.reports.items():
                assert report.ok, (
                    f"{workload.workload} [{name}]: {report.summary()}"
                )

    def test_differential_ok_everywhere(self, sweep):
        """Every workload is held to the oracle on every machine view."""
        for workload in sweep.workloads:
            assert list(workload.differentials) == [
                "healthy", "degraded", "shard-0", "shard-1"
            ]
            for view, diff in workload.differentials.items():
                assert diff.ok, (workload.workload, view, diff.failures)

    def test_exhaustive_used_on_small_instances(self, sweep):
        """Acceptance: DP held to the brute-force optimum when n <= limit."""
        for workload in sweep.workloads:
            for diff in workload.differentials.values():
                assert diff.exhaustive_checked == (diff.num_items <= 16)
                if diff.exhaustive_checked:
                    assert diff.profits["dp"] == diff.profits["exhaustive"]

    def test_all_faults_detected_everywhere(self, sweep):
        """Acceptance: 100% detection rate across the whole sweep."""
        for workload in sweep.workloads:
            assert workload.faults is not None
            assert workload.faults.ok, (
                f"{workload.workload}: missed {workload.faults.missed}"
            )

    def test_summary_mentions_every_workload(self, sweep):
        lines = [w.case_report().describe() for w in sweep.workloads]
        for name, line in zip(BENCHMARK_SIZES, lines):
            assert line.startswith(f"schedule[{name}]: ok")

    def test_as_dict_is_json_serializable(self, sweep):
        payload = json.dumps([w.case_report().as_dict() for w in sweep.workloads])
        decoded = json.loads(payload)
        assert all(case["ok"] for case in decoded)
        assert len(decoded) == len(BENCHMARK_SIZES)


class TestVerifyWorkload:
    def test_stages_can_be_disabled(self):
        outcome = verify_workload(
            synthetic_benchmark("cat"),
            PimConfig(),
            allocators=["dp"],
            with_differential=False,
            with_faults=False,
        )
        assert outcome.ok
        assert outcome.differentials == {}
        assert outcome.faults is None
        assert list(outcome.reports) == ["dp"]

    def test_all_allocators_validated_at_dp_width(self):
        outcome = verify_workload(
            synthetic_benchmark("cat"),
            PimConfig(),
            allocators=["dp", "greedy", "all-edram"],
            with_differential=False,
            with_faults=False,
        )
        assert outcome.ok
        assert set(outcome.reports) == {"dp", "greedy", "all-edram"}


class TestCli:
    def test_parser_rejects_unknown_benchmark(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--benchmarks", "nonesuch"])

    def test_list_checks(self, capsys):
        assert main(["--list-checks"]) == 0
        out = capsys.readouterr().out
        assert "pe-exclusion" in out
        assert "cache-capacity" in out

    def test_subset_run_exits_zero(self, capsys):
        code = main(["--benchmarks", "cat", "--allocators", "dp", "greedy"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: ok" in out

    def test_json_output_parses(self, capsys):
        code = main(
            ["--benchmarks", "cat", "--allocators", "dp",
             "--no-mutations", "--json"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
        assert payload["schedule"][0]["case"] == "cat"
        assert set(payload) == {"ok"} | {b.name for b in BATTERIES}

    def test_strict_liveness_can_fail(self, capsys):
        """Default plans carry the documented liveness gap; strict flags it."""
        code = main(
            ["--benchmarks", "cat", "--allocators", "dp",
             "--strict-liveness", "--no-oracle", "--no-mutations"]
        )
        out = capsys.readouterr().out
        # Either the plan is tight enough to pass or strict mode fails it;
        # both are legal, but the exit code must match the report.
        assert ("overall: ok" in out) == (code == 0)

    @pytest.mark.parametrize("flags", [
        ["--faults", "--fault-iteration", "-1"],
        ["--faults", "--fault-unit-id", "-1"],
        ["--unroll", "-3"],
    ])
    def test_negative_counts_are_usage_errors(self, flags, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--benchmarks", "cat", "--no-oracle", "--no-mutations",
                  *flags])
        assert excinfo.value.code == 2
        assert "usage:" in capsys.readouterr().err

    @pytest.mark.parametrize("limit", [MAX_EXHAUSTIVE_LIMIT + 1, 30, 40])
    def test_oracle_limit_above_the_ceiling_is_a_usage_error(
        self, limit, capsys
    ):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--oracle-limit", str(limit)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "--oracle-limit" in err
        assert f"must be in 1..{MAX_EXHAUSTIVE_LIMIT}, got {limit}" in err

    def test_oracle_limit_ceiling_is_accepted(self):
        args = build_parser().parse_args(
            ["--oracle-limit", str(MAX_EXHAUSTIVE_LIMIT)]
        )
        assert args.oracle_limit == MAX_EXHAUSTIVE_LIMIT

    def test_overall_line_matches_exit_status(self, capsys):
        """A battery that errors fails the overall line, not just the exit
        status: 64 PEs do not split into 3 equal fleet shards."""
        code = main(["--fleet", "--fleet-workers", "3", "--benchmarks", "cat",
                     "--no-oracle", "--no-mutations"])
        out = capsys.readouterr().out
        assert code == 1
        assert ("overall: ok" in out) == (code == 0)
        assert out.rstrip().endswith("overall: FAIL")

    def test_help_names_every_battery(self, capsys):
        with pytest.raises(SystemExit):
            main(["--help"])
        out = capsys.readouterr().out
        for battery in BATTERIES:
            assert battery.name in out
            if not battery.always:
                assert f"--{battery.name}" in out
