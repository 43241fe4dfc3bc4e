"""Executor edge cases: degenerate machines and workload corners."""

from dataclasses import replace

import pytest

from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges
from repro.graph.generators import synthetic_benchmark
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import ConfigurationError, PimConfig
from repro.pim.memory import Placement
from repro.sim.executor import ScheduleExecutor
from repro.verify.validator import ScheduleValidator
from tests.builders import linear_chain


class TestDegenerateMachines:
    def test_zero_cache_machine(self):
        config = PimConfig(num_pes=8, cache_bytes_per_pe=0, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("cat"))
        assert all(
            p is Placement.EDRAM for p in result.schedule.placements.values()
        )
        trace = ScheduleExecutor(replace(config, num_vaults=16)).execute(
            result, iterations=6
        )
        assert trace.slowdown == pytest.approx(1.0, abs=0.05)
        assert trace.stats.cache_bytes == 0
        assert trace.stats.edram_bytes > 0

    def test_single_vault_contention_visible(self):
        config = PimConfig(num_pes=8, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("flower"))
        relaxed = ScheduleExecutor(replace(config, num_vaults=32)).execute(
            result, iterations=8
        )
        contended = ScheduleExecutor(replace(config, num_vaults=1)).execute(
            result, iterations=8
        )
        # one vault serializes all off-chip traffic: lateness can only grow
        assert contended.total_lateness >= relaxed.total_lateness
        # and the executor absorbs it without losing instances
        assert len(contended.records) == len(relaxed.records)

    def test_two_pe_machine(self):
        config = PimConfig(num_pes=2, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("cat"))
        trace = ScheduleExecutor(config).execute(result, iterations=4)
        assert {r.pe for r in trace.records} <= {0, 1}

    @pytest.mark.parametrize("mode", ["full", "steady"])
    @pytest.mark.parametrize("vaults", [0, -1])
    def test_vaultless_machine_is_a_typed_error(self, mode, vaults):
        """No vaults is rejected at construction, never a ZeroDivisionError
        from the vault interleaving mid-run."""
        with pytest.raises(ConfigurationError, match="num_vaults must be >= 1"):
            ScheduleExecutor(PimConfig(num_pes=16, num_vaults=vaults), mode=mode)


class TestWorkloadCorners:
    def test_pure_chain(self):
        graph = linear_chain([2, 3, 1, 2], size_bytes=2048)
        config = PimConfig(num_pes=4, iterations=100)
        result = ParaConv(config).run(graph)
        trace = ScheduleExecutor(replace(config, num_vaults=8)).execute(
            result, iterations=5
        )
        assert trace.slowdown == pytest.approx(1.0, abs=0.05)
        # chain dependencies: instance l of stage k+1 after stage k
        finish = {(r.op_id, r.iteration): r.finish for r in trace.records}
        start = {(r.op_id, r.iteration): r.start for r in trace.records}
        for stage in range(3):
            for iteration in range(1, 6):
                assert finish[(stage, iteration)] <= start[(stage + 1, iteration)]

    def test_single_iteration(self):
        config = PimConfig(num_pes=8, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("cat"))
        trace = ScheduleExecutor(config).execute(result, iterations=1)
        assert len(trace.records) == result.graph.num_vertices

    def test_epilogue_instances_complete(self):
        """Deep retiming: the last iterations drain correctly."""
        config = PimConfig(num_pes=16, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("character-1"))
        iterations = max(3, result.max_retiming // 2)
        trace = ScheduleExecutor(config).execute(result, iterations=iterations)
        executed = {(r.op_id, r.iteration) for r in trace.records}
        for op in result.graph.operations():
            for iteration in range(1, iterations + 1):
                assert (op.op_id, iteration) in executed


class TestExtremeCorners:
    """The boundary points of the machine/workload parameter space."""

    def test_single_pe_machine(self):
        """One PE: everything serializes into a single legal group."""
        config = PimConfig(num_pes=1, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("cat"))
        assert result.group_width == 1
        assert result.num_groups == 1
        # a 1-PE schedule is still invariant-clean ...
        assert ScheduleValidator().validate(result).ok
        # ... and the period is at least the serial work
        serial = sum(op.execution_time for op in result.graph.operations())
        assert result.period >= serial
        trace = ScheduleExecutor(replace(config, num_vaults=4)).execute(
            result, iterations=3
        )
        assert {r.pe for r in trace.records} == {0}
        assert len(trace.records) == 3 * result.graph.num_vertices

    def test_zero_ir_graph(self):
        """No intermediate results: nothing to retime, cache or transfer."""
        graph = TaskGraph(name="edgeless")
        for op_id in range(4):
            graph.add_op(op_id, execution_time=2)
        graph.validate()
        config = PimConfig(num_pes=4, iterations=100)
        result = ParaConv(config).run(graph)
        assert result.max_retiming == 0
        assert result.prologue_time == 0
        assert result.allocation.cached == []
        assert result.allocation.slots_used == 0
        assert result.offchip_bytes_per_iteration() == 0
        assert ScheduleValidator().validate(result).ok
        trace = ScheduleExecutor(config).execute(result, iterations=5)
        assert len(trace.records) == 5 * graph.num_vertices
        assert trace.stats.cache_bytes == 0
        assert trace.stats.edram_bytes == 0

    def test_cache_larger_than_total_ir_size(self):
        """Capacity >= total demand: every profitable edge is cached."""
        config = PimConfig(
            num_pes=8, cache_bytes_per_pe=1 << 20, iterations=100
        )
        result = ParaConv(config).run(synthetic_benchmark("cat"))
        timings = analyze_edges(
            result.graph, result.schedule.kernel, config
        )
        profitable = {k for k, t in timings.items() if t.delta_r > 0}
        assert set(result.allocation.cached) == profitable
        assert result.allocation.slots_used <= result.allocation.capacity_slots
        trace = ScheduleExecutor(replace(config, num_vaults=16)).execute(
            result, iterations=4
        )
        assert trace.cache_spills == 0

    def test_single_iteration_is_prologue_plus_one_round(self):
        """N=1 analytic latency: the prologue plus exactly one period."""
        config = PimConfig(num_pes=8, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("cat"))
        assert result.total_time(1) == result.prologue_time + result.period
        trace = ScheduleExecutor(config).execute(result, iterations=1)
        # every op ran exactly once, and dependencies still held
        assert sorted(r.op_id for r in trace.records) == sorted(
            op.op_id for op in result.graph.operations()
        )
        finish = {r.op_id: r.finish for r in trace.records}
        start = {r.op_id: r.start for r in trace.records}
        for edge in result.graph.edges():
            assert finish[edge.producer] <= start[edge.consumer]
