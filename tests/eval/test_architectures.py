"""Tests for the cross-architecture study and presets."""

import pytest

from repro.eval.architectures import (
    average_improvement_by_architecture,
    render_architectures,
    run_architectures,
)
from repro.pim.config import ConfigurationError
from repro.pim.presets import ARCHITECTURES, architecture


class TestPresets:
    def test_all_presets_valid_configs(self):
        for name in ARCHITECTURES:
            config = architecture(name)
            assert config.num_pes >= 1
            assert 2 <= config.edram_latency_factor <= 10

    def test_pe_override(self):
        config = architecture("neurocube", num_pes=64)
        assert config.num_pes == 64
        # and the base preset is untouched
        assert ARCHITECTURES["neurocube"].num_pes == 16

    def test_unknown_architecture_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown architecture"):
            architecture("tpu")

    def test_design_points_differ(self):
        factors = {c.edram_latency_factor for c in ARCHITECTURES.values()}
        assert len(factors) >= 3  # genuinely different machines


class TestStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_architectures(workloads=("flower", "shortest-path"), num_pes=16)

    def test_grid_complete(self, rows):
        assert len(rows) == len(ARCHITECTURES) * 2

    def test_paraconv_wins_on_every_architecture(self, rows):
        for row in rows:
            assert row.improvement_percent > 0, (row.architecture, row.workload)

    def test_offpe_penalty_drives_the_margin(self, rows):
        averages = average_improvement_by_architecture(rows)
        # the slow-vault edge machine gains the most; the cheap-path RRAM
        # machine gains the least (or ties the reference)
        assert averages["edge_pim"] >= averages["neurocube"]
        assert averages["edge_pim"] >= averages["rram_pim"]

    def test_subset_selection(self):
        rows = run_architectures(
            workloads=("flower",), names=["rram_pim"], num_pes=16
        )
        assert {r.architecture for r in rows} == {"rram_pim"}

    def test_render(self, rows):
        text = render_architectures(rows)
        assert "Cross-architecture" in text
        assert "edge_pim" in text
