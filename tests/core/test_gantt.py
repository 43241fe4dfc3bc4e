"""Tests for the ASCII Gantt renderer."""

import pytest

from repro.core.gantt import render_kernel, render_retiming
from repro.core.paraconv import ParaConv
from repro.core.schedule import KernelSchedule, ScheduleError
from tests.builders import kernel_of


class TestRenderKernel:
    def test_basic_layout(self):
        kernel = kernel_of(None, 3, {0: (0, 0, 2), 1: (1, 1, 3)})
        text = render_kernel(kernel)
        lines = text.splitlines()
        assert lines[1].startswith("PE0")
        assert "T0" in lines[1]
        assert "T1" in lines[2]
        assert lines[1].count("T0") == 2  # occupies two time units

    def test_idle_cells_rendered(self):
        kernel = kernel_of(None, 3, {0: (0, 0, 1)})
        text = render_kernel(kernel)
        assert "." in text

    def test_custom_labels_truncated(self):
        kernel = kernel_of(None, 1, {0: (0, 0, 1)})
        text = render_kernel(kernel, labels={0: "convolution_very_long"})
        assert "con" in text
        assert "convolution_very_long" not in text

    def test_empty_kernel(self):
        assert render_kernel(KernelSchedule(period=0)) == "(empty kernel)"

    def test_explicit_pe_count_adds_idle_rows(self):
        kernel = kernel_of(None, 1, {0: (0, 0, 1)})
        text = render_kernel(kernel, num_pes=3)
        assert "PE2" in text

    def test_bad_cell_width(self):
        kernel = kernel_of(None, 1, {0: (0, 0, 1)})
        with pytest.raises(ScheduleError):
            render_kernel(kernel, cell_width=1)


class TestRenderRetiming:
    def test_mentions_rmax_and_rounds(self, figure2_graph, small_config):
        result = ParaConv(small_config).run(figure2_graph)
        text = render_retiming(result.schedule)
        assert f"R_max = {result.max_retiming}" in text
        assert text.count("prologue round") == result.max_retiming


class TestRenderExpanded:
    def test_whole_run_shows_iterations(self, figure2_graph, small_config):
        from repro.core.gantt import render_expanded
        from repro.core.paraconv import ParaConv

        result = ParaConv(small_config).run(figure2_graph)
        text = render_expanded(result.schedule, iterations=3)
        assert "T0.1" in text  # first iteration of the source
        assert "PE0" in text

    def test_truncation_notice(self, figure2_graph, small_config):
        from repro.core.gantt import render_expanded
        from repro.core.paraconv import ParaConv

        result = ParaConv(small_config).run(figure2_graph)
        text = render_expanded(result.schedule, iterations=50, max_columns=10)
        assert "truncated" in text

    def test_bad_cell_width(self, figure2_graph, small_config):
        import pytest

        from repro.core.gantt import render_expanded
        from repro.core.paraconv import ParaConv
        from repro.core.schedule import ScheduleError

        result = ParaConv(small_config).run(figure2_graph)
        with pytest.raises(ScheduleError):
            render_expanded(result.schedule, iterations=2, cell_width=1)
