"""Tests for the SPARTA baseline reimplementation."""

import pytest

from repro.core.baseline import SpartaScheduler, TaskSensor
from repro.core.schedule import ScheduleError
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.memory import Placement


class TestTaskSensor:
    def test_first_sample_taken_verbatim(self):
        sensor = TaskSensor()
        sensor.update(4.0, 100.0)
        assert sensor.observed_exec == 4.0
        assert sensor.observed_comm == 100.0

    def test_ema_smoothing(self):
        sensor = TaskSensor(alpha=0.5)
        sensor.update(4.0, 100.0)
        sensor.update(8.0, 200.0)
        assert sensor.observed_exec == pytest.approx(6.0)
        assert sensor.observed_comm == pytest.approx(150.0)
        assert sensor.samples == 2


class TestSpartaScheduler:
    def test_kernel_is_resource_feasible(self, paper_config):
        graph = synthetic_benchmark("flower")
        result = SpartaScheduler(paper_config).run(graph)
        # kernel is over the *stalled* view; check resources only
        per_pe = {}
        kernel = result.kernel
        for op_id in kernel.op_ids:
            placement = kernel.placement(op_id)
            per_pe.setdefault(placement.pe, []).append(placement)
            assert placement.pe < result.group_width
        for placements in per_pe.values():
            placements.sort(key=lambda p: p.start)
            for left, right in zip(placements, placements[1:]):
                assert right.start >= left.finish

    def test_stalls_inflate_iteration_length(self, paper_config):
        graph = synthetic_benchmark("flower")
        result = SpartaScheduler(paper_config).run(graph)
        # the stalled makespan must exceed the pure-work lower bound
        pure_work = graph.total_work()
        assert result.iteration_length * result.group_width > pure_work

    def test_total_time_formula(self, paper_config):
        import math

        graph = synthetic_benchmark("cat")
        result = SpartaScheduler(paper_config).run(graph)
        n = paper_config.iterations
        assert result.total_time() == math.ceil(
            n / result.num_groups
        ) * result.iteration_length

    def test_total_time_rejects_bad_iterations(self, paper_config):
        result = SpartaScheduler(paper_config).run(synthetic_benchmark("cat"))
        with pytest.raises(ScheduleError):
            result.total_time(0)

    def test_every_edge_placed(self, paper_config):
        graph = synthetic_benchmark("car")
        result = SpartaScheduler(paper_config).run(graph)
        assert set(result.placements) == {e.key for e in graph.edges()}

    def test_cache_capacity_respected(self, paper_config):
        graph = synthetic_benchmark("protein")
        result = SpartaScheduler(paper_config).run(graph)
        used = sum(
            paper_config.slots_required(e.size_bytes)
            for e in graph.edges()
            if result.placements[e.key] is Placement.CACHE
        )
        assert used <= paper_config.total_cache_slots // result.num_groups

    def test_sensor_noise_still_schedules(self, paper_config):
        graph = synthetic_benchmark("flower")
        noisy = SpartaScheduler(paper_config, sensor_noise=0.3, seed=7).run(graph)
        clean = SpartaScheduler(paper_config).run(graph)
        # noise may change the allocation but never breaks the schedule
        assert noisy.total_time() > 0
        assert noisy.num_cached <= graph.num_edges
        # and perfect sensing is at least as good on average here
        assert clean.total_time() <= noisy.total_time() * 1.5

    def test_invalid_parameters_rejected(self, paper_config):
        with pytest.raises(ScheduleError):
            SpartaScheduler(paper_config, sensor_noise=-0.1)
        with pytest.raises(ScheduleError):
            SpartaScheduler(paper_config, warmup_iterations=0)

    def test_effective_period(self, paper_config):
        result = SpartaScheduler(paper_config).run(synthetic_benchmark("cat"))
        assert result.effective_period == pytest.approx(
            result.iteration_length / result.num_groups
        )

    def test_throughput(self, paper_config):
        result = SpartaScheduler(paper_config).run(synthetic_benchmark("cat"))
        assert result.throughput(100) == pytest.approx(
            100 / result.total_time(100)
        )


class TestComparison:
    @pytest.mark.parametrize("name", ["cat", "flower", "character-1", "protein"])
    @pytest.mark.parametrize("pes", [16, 32, 64])
    def test_paraconv_beats_sparta(self, name, pes):
        """The paper's headline: Para-CONV wins on every configuration."""
        from repro.core.paraconv import ParaConv

        config = PimConfig(num_pes=pes)
        graph = synthetic_benchmark(name)
        para = ParaConv(config).run(graph)
        sparta = SpartaScheduler(config).run(graph)
        assert para.total_time() < sparta.total_time()

    def test_improvement_in_paper_band(self):
        """Average reduction lands near the paper's 53.42%."""
        from repro.core.paraconv import ParaConv

        reductions = []
        for name in ("character-1", "shortest-path", "protein"):
            graph = synthetic_benchmark(name)
            for pes in (16, 32, 64):
                config = PimConfig(num_pes=pes)
                para = ParaConv(config).run(graph).total_time()
                sparta = SpartaScheduler(config).run(graph).total_time()
                reductions.append((sparta - para) / sparta * 100)
        average = sum(reductions) / len(reductions)
        assert 40.0 <= average <= 70.0
