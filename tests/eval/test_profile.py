"""The cProfile hotspot harness (``python -m repro.eval profile``)."""

from __future__ import annotations

import pytest

from repro.eval.profile import (
    DEFAULT_PROFILE_WORKLOADS,
    ProfileReport,
    run_profile,
)
from repro.pim.config import PimConfig


@pytest.fixture(scope="module")
def small_machine():
    return PimConfig(num_pes=8, iterations=40)


class TestRunProfile:
    def test_unknown_target_rejected(self):
        with pytest.raises(ValueError, match="unknown profile target"):
            run_profile("link")

    def test_compile_profile_shape(self, small_machine):
        report = run_profile(
            "compile", small_machine, workload="cat", top=5
        )
        assert isinstance(report, ProfileReport)
        assert report.target == "compile"
        assert report.workload == "cat"
        assert 0 < len(report.rows) <= 5
        assert report.seconds > 0
        # The hotspot table must actually surface the compile pipeline.
        table = "\n".join(row.function for row in report.rows)
        assert "repro" in table
        for row in report.rows:
            assert row.calls >= 1
            assert row.cumulative_seconds >= row.total_seconds >= 0

    def test_compile_profile_defaults_to_protein_with_dp(self, small_machine):
        # The path the CLI and the benchmark's compile sweep take.
        assert DEFAULT_PROFILE_WORKLOADS["compile"] == "protein"
        report = run_profile("compile", small_machine, top=60)
        assert report.workload == "protein"
        table = "\n".join(row.function for row in report.rows)
        assert "dp_allocate" in table
        assert "analyze_edges" in table

    def test_compile_profile_stays_cold_after_warm_compiles(self, small_machine):
        # Kernels kept by an earlier compile of the workload are not the
        # profiled compile's: it still builds and analyzes every width.
        from repro.cnn.workloads import load_workload
        from repro.core.paraconv import ParaConv

        ParaConv(small_machine).run(load_workload("protein"))
        report = run_profile("compile", small_machine, top=60)
        table = "\n".join(row.function for row in report.rows)
        assert "(compact_kernel_schedule)" in table
        assert "(analyze_edges)" in table

    def test_sim_profile_hits_the_columnar_engine(self, small_machine):
        report = run_profile("sim", small_machine, workload="cat", top=25)
        table = "\n".join(row.function for row in report.rows)
        # The engine's event loop over its columnar timelines.
        assert "executor.py" in table
        assert "_run_until" in table

    def test_sim_profile_honors_mode(self, small_machine):
        def table(mode):
            report = run_profile(
                "sim", small_machine, workload="cat", top=25, sim_mode=mode
            )
            return "\n".join(row.function for row in report.rows)

        # Only the steady mode pays for boundary canonical forms.
        assert "_canonical" not in table("full")
        assert "_canonical" in table("steady")

    def test_serve_profile_runs_the_fleet(self):
        from repro.fleet.__main__ import DEFAULT_WORKLOADS

        machine = PimConfig(num_pes=16, num_vaults=8)
        report = run_profile("serve", machine, top=40, requests=64)
        assert report.target == "serve"
        assert report.workload == DEFAULT_WORKLOADS
        table = "\n".join(row.function for row in report.rows)
        # The per-request path: router admission, shard pump, server step.
        assert "router.py" in table and "(submit)" in table
        assert "worker.py" in table and "(pump)" in table
        assert "server.py" in table and "(step)" in table
        # Plans are compiled before the profiled region.
        assert "paraconv.py" not in table
        submit = next(
            row for row in report.rows
            if "router.py" in row.function and "(submit)" in row.function
        )
        assert submit.calls == 64

    def test_serve_profile_counts_batches_per_plan(self):
        # Three pumps serve three batches per plan after the one-request
        # warm-up: the first starts from the warm-up's prefix state at
        # round 1 and converges, the others resume from its boundary.
        machine = PimConfig(num_pes=64, num_vaults=32)
        report = run_profile("serve", machine, top=5, requests=1100)
        assert len(report.plans) == 4
        assert {
            (plan.machine, plan.converging, plan.resumed, plan.prefix,
             plan.reused)
            for plan in report.plans
        } == {(f"16pe/8v@{machine.split(4)[0].logical.fingerprint()[:8]}",
               1, 2, 1, 0)}
        assert "## Batches per plan and machine" in report.render()

    def test_serve_profile_takes_a_mix(self):
        machine = PimConfig(num_pes=16, num_vaults=8)
        report = run_profile(
            "serve", machine, workload="flower,lenet5", requests=16, top=5
        )
        assert report.workload == "flower,lenet5"
        assert report.render().startswith("## Hotspots: serve (flower,lenet5,")

    def test_rows_sorted_by_cumulative_time(self, small_machine):
        report = run_profile("compile", small_machine, workload="cat")
        cumulative = [row.cumulative_seconds for row in report.rows]
        assert cumulative == sorted(cumulative, reverse=True)

    def test_render_is_a_table(self, small_machine):
        rendered = run_profile(
            "compile", small_machine, workload="cat", top=3
        ).render()
        assert rendered.startswith("## Hotspots: compile")
        assert "cumtime" in rendered


def test_profile_cli(capsys):
    from repro.eval.__main__ import main

    assert main([
        "profile", "compile", "--top", "4", "--iterations", "40",
    ]) == 0
    out = capsys.readouterr().out
    assert "## Hotspots: compile (protein," in out
    assert "cumtime" in out
