"""The cProfile hotspot harness (``python -m repro.eval profile``)."""

from __future__ import annotations

import pytest

from repro.eval.profile import (
    PROFILE_TARGETS,
    ProfileReport,
    run_profile,
    run_profiles,
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


def test_run_profiles_covers_both_targets(small_machine):
    reports = run_profiles(config=small_machine, workload="cat", top=3)
    assert set(reports) == set(PROFILE_TARGETS)


def test_profile_cli(capsys):
    from repro.eval.__main__ import main

    assert main([
        "profile", "compile", "--top", "4", "--iterations", "40",
    ]) == 0
    out = capsys.readouterr().out
    assert "## Hotspots: compile" in out
    assert "cumtime" in out
