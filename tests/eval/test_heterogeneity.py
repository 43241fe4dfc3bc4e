"""Tests for the heterogeneous-array extension."""

import pytest

from repro.core.schedule import validate_kernel, validate_periodic_schedule
from repro.core.scheduler import (
    compact_kernel_schedule,
    compact_kernel_schedule_heterogeneous,
    list_schedule_heterogeneous,
)
from repro.eval.heterogeneity import (
    paraconv_heterogeneous,
    render_heterogeneity,
    run_heterogeneity,
)
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import ConfigurationError, PimConfig
from repro.pim.heterogeneous import HeterogeneousArray, big_little, homogeneous


class TestHeterogeneousArray:
    def test_speed_count_must_match(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousArray(PimConfig(num_pes=4), speeds=(1.0, 1.0))

    def test_non_positive_speed_rejected(self):
        with pytest.raises(ConfigurationError):
            HeterogeneousArray(PimConfig(num_pes=2), speeds=(1.0, 0.0))

    def test_effective_time(self):
        array = HeterogeneousArray(PimConfig(num_pes=2), speeds=(1.0, 0.5))
        assert array.effective_time(3, 0) == 3
        assert array.effective_time(3, 1) == 6
        assert array.effective_time(1, 1) == 2

    def test_effective_time_floor_one(self):
        array = HeterogeneousArray(PimConfig(num_pes=1), speeds=(4.0,))
        assert array.effective_time(1, 0) == 1

    def test_big_little_layout(self):
        array = big_little(PimConfig(num_pes=8), big_fraction=0.25,
                           little_speed=0.5)
        assert array.speeds == (1.0, 1.0, 0.5, 0.5, 0.5, 0.5, 0.5, 0.5)

    def test_group_subarray(self):
        array = big_little(PimConfig(num_pes=4), little_speed=0.5)
        sub = array.group([0, 3])
        assert sub.speeds == (1.0, 0.5)
        assert sub.config.num_pes == 2

    def test_homogeneous_degenerates(self):
        array = homogeneous(PimConfig(num_pes=4))
        assert set(array.speeds) == {1.0}


class TestHeterogeneousSchedulers:
    @pytest.fixture
    def graph(self):
        return synthetic_benchmark("flower")

    @pytest.fixture
    def array(self):
        return big_little(PimConfig(num_pes=8), little_speed=0.5)

    def test_compact_het_resource_feasible(self, graph, array):
        kernel = compact_kernel_schedule_heterogeneous(graph, array)
        validate_kernel(
            graph, kernel, 8,
            duration_of=lambda op, pe: array.effective_time(
                graph.operation(op).execution_time, pe
            ),
        )

    def test_homogeneous_array_matches_nominal_bound(self, graph):
        array = homogeneous(PimConfig(num_pes=8))
        het = compact_kernel_schedule_heterogeneous(graph, array)
        hom = compact_kernel_schedule(graph, 8)
        # same machine, both greedy: identical periods
        assert het.period == hom.period

    def test_slower_littles_stretch_the_period(self, graph):
        fast = big_little(PimConfig(num_pes=8), little_speed=1.0)
        slow = big_little(PimConfig(num_pes=8), little_speed=0.25)
        assert (
            compact_kernel_schedule_heterogeneous(graph, slow).period
            >= compact_kernel_schedule_heterogeneous(graph, fast).period
        )

    def test_list_het_honors_dependencies(self, graph, array):
        kernel = list_schedule_heterogeneous(graph, array)
        for edge in graph.edges():
            assert kernel.placement(edge.producer).finish <= kernel.placement(edge.consumer).start

    def test_extra_occupancy_stretches(self, graph, array):
        plain = list_schedule_heterogeneous(graph, array)
        stalled = list_schedule_heterogeneous(
            graph, array,
            extra_occupancy={op.op_id: 2 for op in graph.operations()},
        )
        assert stalled.period > plain.period


class TestHeterogeneityStudy:
    @pytest.fixture(scope="class")
    def rows(self):
        return run_heterogeneity(
            PimConfig(iterations=200),
            benchmarks=("flower", "character-1"),
            pes=8,
            little_speeds=(1.0, 0.25),
        )

    def test_paraconv_wins_even_on_sparta_turf(self, rows):
        for row in rows:
            assert row.improvement_percent > 0

    def test_gap_narrows_with_heterogeneity(self, rows):
        by_speed = {}
        for row in rows:
            by_speed.setdefault(row.little_speed, []).append(
                row.improvement_percent
            )
        homogeneous_avg = sum(by_speed[1.0]) / len(by_speed[1.0])
        skewed_avg = sum(by_speed[0.25]) / len(by_speed[0.25])
        assert skewed_avg <= homogeneous_avg

    def test_schedules_valid(self):
        array = big_little(PimConfig(num_pes=8, iterations=200),
                           little_speed=0.5)
        schedule, total = paraconv_heterogeneous(
            synthetic_benchmark("flower"), array
        )
        validate_periodic_schedule(schedule)
        assert total > 0

    def test_render(self, rows):
        assert "big.LITTLE" in render_heterogeneity(rows)
