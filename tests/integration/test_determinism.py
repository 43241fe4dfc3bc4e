"""Determinism: identical inputs must produce bit-identical results.

Every published number in EXPERIMENTS.md and the golden artifacts depends
on this; a hidden source of nondeterminism (set iteration, unseeded RNG,
hash randomization) would make the reproduction unreproducible.
"""

import pytest

from repro.core.baseline import SpartaScheduler
from repro.core.paraconv import ParaConv
from repro.core.schedule_io import schedule_to_dict
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig


@pytest.mark.parametrize("name", ["cat", "character-2", "protein"])
class TestParaConvDeterminism:
    def test_identical_schedules_across_runs(self, name):
        config = PimConfig(num_pes=32, iterations=200)
        graph = synthetic_benchmark(name)
        a = ParaConv(config).run(graph)
        b = ParaConv(config).run(graph)
        assert schedule_to_dict(a.schedule) == schedule_to_dict(b.schedule)
        assert a.total_time() == b.total_time()
        assert a.group_width == b.group_width

    def test_graph_rebuild_does_not_matter(self, name):
        config = PimConfig(num_pes=32, iterations=200)
        a = ParaConv(config).run(synthetic_benchmark(name))
        b = ParaConv(config).run(synthetic_benchmark(name))
        assert a.schedule.retiming == b.schedule.retiming
        assert a.allocation.cached == b.allocation.cached


class TestSpartaDeterminism:
    @pytest.mark.parametrize("name", ["flower", "speech-1"])
    def test_identical_results_across_runs(self, name):
        config = PimConfig(num_pes=32, iterations=200)
        graph = synthetic_benchmark(name)
        a = SpartaScheduler(config).run(graph)
        b = SpartaScheduler(config).run(graph)
        assert a.total_time() == b.total_time()
        assert a.placements == b.placements
        assert a.kernel == b.kernel

    def test_noise_is_seeded(self):
        config = PimConfig(num_pes=16, iterations=200)
        graph = synthetic_benchmark("flower")
        a = SpartaScheduler(config, sensor_noise=0.3, seed=9).run(graph)
        b = SpartaScheduler(config, sensor_noise=0.3, seed=9).run(graph)
        assert a.total_time() == b.total_time()


class TestAmortization:
    def test_throughput_improves_with_horizon(self):
        """The prologue amortizes: longer runs approach 1/p per group."""
        config = PimConfig(num_pes=16, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("character-1"))
        short = result.throughput(10)
        long = result.throughput(10_000)
        assert long > short
        ideal = result.num_groups / result.period
        assert long == pytest.approx(ideal, rel=0.01)
