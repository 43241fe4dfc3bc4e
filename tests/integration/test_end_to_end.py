"""Cross-module integration tests.

These tie the whole stack together: the paper's own motivational example,
the retimed-schedule-vs-unrolled-DAG equivalence check, a real GoogLeNet
partition through the full pipeline, and a machine-validated execution.
"""


import pytest

from repro.cnn.googlenet import googlenet_prefix
from repro.cnn.partition import partition_network
from repro.core.baseline import SpartaScheduler
from repro.core.paraconv import ParaConv
from repro.core.schedule import validate_periodic_schedule
from repro.graph.instances import unroll
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor


class TestMotivationalExample:
    """Paper Section 2.3 / Figure 3: the five-operation graph on 4 PEs."""

    @pytest.fixture
    def machine(self):
        # four PEs; each PE's cache holds one small intermediate result
        return PimConfig(
            num_pes=4,
            cache_bytes_per_pe=512,
            cache_slot_bytes=512,
            iterations=100,
        )

    def test_cache_holds_four_results(self, machine):
        assert machine.total_cache_slots == 4

    def test_compacted_kernel_uses_retiming(self, figure2_graph, machine):
        result = ParaConv(machine).run_at_width(figure2_graph, 4)
        # five unit ops on 4 PEs: kernel of ceil(5/4) = 2 units
        assert result.period == 2
        # compaction is impossible without a prologue
        assert result.max_retiming >= 1
        validate_periodic_schedule(result.schedule)

    def test_cache_capacity_limits_allocation(self, figure2_graph, machine):
        result = ParaConv(machine).run_at_width(figure2_graph, 4)
        assert result.allocation.slots_used <= 4

    def test_beats_naive_mapping(self, figure2_graph, machine):
        para = ParaConv(machine).run(figure2_graph)
        sparta = SpartaScheduler(machine).run(figure2_graph)
        assert para.total_time() <= sparta.total_time()


class TestUnrolledEquivalence:
    """The retimed schedule must realize exactly the unrolled dependencies."""

    @pytest.mark.parametrize("name", ["cat", "flower", "character-1"])
    def test_schedule_satisfies_every_unrolled_dependency(self, name):
        config = PimConfig(num_pes=16, iterations=100)
        graph = synthetic_benchmark(name)
        result = ParaConv(config).run(graph)
        schedule = result.schedule
        period = schedule.period
        r_max = schedule.max_retiming
        iterations = 6

        def absolute_start(op_id, iteration):
            round_index = iteration + r_max - schedule.retiming[op_id]
            return (round_index - 1) * period + schedule.kernel.placement(op_id).start

        def absolute_finish(op_id, iteration):
            op = graph.operation(op_id)
            return absolute_start(op_id, iteration) + op.execution_time

        _, edges = unroll(
            graph,
            iterations,
            relative_retiming={
                e.key: schedule.relative_retiming(e.producer, e.consumer)
                for e in graph.edges()
            },
        )
        # The unroll helper connects producer iteration l to consumer
        # iteration l + delta; in schedule terms both run in the same
        # round, delta*p apart. Every dependency must be met with the
        # edge's transfer latency.
        for producer, consumer in edges:
            key = (producer.op_id, consumer.op_id)
            transfer = schedule.transfer_times[key]
            assert (
                absolute_finish(producer.op_id, producer.iteration) + transfer
                <= absolute_start(consumer.op_id, consumer.iteration)
            ), f"dependency {producer} -> {consumer} violated"


class TestGoogLeNetPipeline:
    def test_partitioned_network_schedules(self):
        graph = partition_network(googlenet_prefix(2))
        config = PimConfig(num_pes=32, iterations=100)
        result = ParaConv(config).run(graph)
        validate_periodic_schedule(result.schedule)
        sparta = SpartaScheduler(config).run(graph)
        assert result.total_time() < sparta.total_time()

    def test_full_googlenet_beats_baseline_on_64_pes(self):
        from repro.cnn.workloads import load_workload

        graph = load_workload("googlenet")
        config = PimConfig(num_pes=64, iterations=100)
        para = ParaConv(config).run(graph)
        sparta = SpartaScheduler(config).run(graph)
        assert para.total_time() < sparta.total_time()
        validate_periodic_schedule(para.schedule)


class TestExecutionOnMachine:
    def test_schedule_executes_exactly_as_predicted(self):
        config = PimConfig(num_pes=16, iterations=100)
        graph = synthetic_benchmark("character-2")
        result = ParaConv(config).run(graph)
        trace = ScheduleExecutor(config).execute(
            result, iterations=12
        )
        assert trace.slowdown == pytest.approx(1.0, abs=0.02)
        expected = graph.num_vertices * 12
        assert len(trace.records) == expected

    def test_offchip_traffic_matches_placement_census(self):
        config = PimConfig(num_pes=16, iterations=100)
        graph = synthetic_benchmark("cat")
        result = ParaConv(config).run(graph)
        trace = ScheduleExecutor(config).execute(
            result, iterations=10
        )
        # per-iteration eDRAM bytes from the trace must be at least the
        # analytic census (spills add, never subtract)
        analytic = result.offchip_bytes_per_iteration() * 10
        assert trace.stats.edram_bytes >= analytic


class TestSerializationRoundTripThroughPipeline:
    def test_saved_graph_produces_identical_schedule(self, tmp_path):
        from repro.graph.io import graph_from_json, graph_to_json

        config = PimConfig(num_pes=8, iterations=100)
        graph = synthetic_benchmark("car")
        path = tmp_path / "car.json"
        graph_to_json(graph, path)
        restored = graph_from_json(path)
        a = ParaConv(config).run(graph)
        b = ParaConv(config).run(restored)
        assert a.total_time() == b.total_time()
        assert a.max_retiming == b.max_retiming
        assert a.schedule.retiming == b.schedule.retiming
