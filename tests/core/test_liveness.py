"""Tests for cache liveness analysis and the liveness-aware mode."""

import pytest

from repro.core.liveness import (
    live_instances,
    liveness_weighted_problem,
    peak_cache_demand,
)
from repro.core.paraconv import ParaConv
from repro.core.retiming import EdgeTiming, RetimingError
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from tests.builders import timings_table


def timing(key, delta_cache=0, delta_edram=1, slots=2, deadline=0):
    return EdgeTiming(
        key=key, transfer_cache=0, transfer_edram=1,
        delta_cache=delta_cache, delta_edram=delta_edram,
        slots=slots, deadline=deadline,
    )


class TestLiveInstances:
    def test_zero_delta_one_instance(self):
        assert live_instances(0) == 1

    def test_each_delta_adds_one(self):
        assert live_instances(2) == 3

    def test_negative_rejected(self):
        with pytest.raises(RetimingError):
            live_instances(-1)


class TestPeakDemand:
    def test_only_cached_counted(self):
        timings = {
            (0, 1): timing((0, 1), delta_cache=1, slots=3),
            (1, 2): timing((1, 2), delta_cache=0, slots=5),
        }
        cached = {(0, 1): True, (1, 2): False}
        assert peak_cache_demand(timings, cached) == 3 * 2


class TestWeightedProblem:
    def test_weights_scaled_by_realized_delta(self):
        timings = timings_table([timing((0, 1), delta_cache=0, slots=2)])
        problem = liveness_weighted_problem(
            timings, capacity_slots=20, realized_delta=[3]  # by edge row
        )
        assert problem.items[0].slots == 2 * 4  # (3 + 1) instances

    def test_requirement_is_lower_bound(self):
        timings = timings_table(
            [timing((0, 1), delta_cache=1, delta_edram=2, slots=2)]
        )
        problem = liveness_weighted_problem(
            timings, capacity_slots=20, realized_delta=[0]
        )
        assert problem.items[0].slots == 2 * 2  # delta_cache wins over 0

    def test_indifferent_edges_preserved(self):
        timings = timings_table([
            timing((0, 1)),
            timing((1, 2), delta_edram=0),  # case 1: indifferent
        ])
        problem = liveness_weighted_problem(timings, 10)
        assert (1, 2) in problem.indifferent

    def test_negative_capacity_rejected(self):
        with pytest.raises(RetimingError):
            liveness_weighted_problem({}, -1)


class TestLivenessAwarePipeline:
    @pytest.mark.parametrize("name", ["cat", "character-1", "shortest-path"])
    def test_no_spills_on_simulated_machine(self, name):
        config = PimConfig(num_pes=32, iterations=200)
        graph = synthetic_benchmark(name)
        result = ParaConv(config, liveness_aware=True).run(graph)
        trace = ScheduleExecutor(config).execute(
            result, iterations=12
        )
        assert trace.cache_spills == 0
        assert trace.slowdown == pytest.approx(1.0, abs=0.02)

    def test_total_time_not_worse(self):
        config = PimConfig(num_pes=32, iterations=200)
        graph = synthetic_benchmark("character-1")
        plain = ParaConv(config).run(graph)
        aware = ParaConv(config, liveness_aware=True).run(graph)
        assert aware.total_time() <= plain.total_time() * 1.05

    def test_peak_occupancy_within_capacity(self):
        config = PimConfig(num_pes=32, iterations=200)
        graph = synthetic_benchmark("shortest-path")
        result = ParaConv(config, liveness_aware=True).run(graph)
        trace = ScheduleExecutor(config).execute(
            result, iterations=12
        )
        capacity = config.total_cache_slots // result.num_groups
        assert trace.cache_peak_slots <= capacity
