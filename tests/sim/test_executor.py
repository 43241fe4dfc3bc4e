"""Tests for the discrete-event schedule executor."""

from dataclasses import replace

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.sim.engine import SimulationError
from repro.sim.executor import ScheduleExecutor
from repro.sim.trace import TransferKind


@pytest.fixture(scope="module")
def flower_trace():
    config = PimConfig(num_pes=16)
    result = ParaConv(config).run(synthetic_benchmark("flower"))
    trace = ScheduleExecutor(config).execute(result, iterations=10)
    return result, trace


class TestExecution:
    def test_all_instances_execute(self, flower_trace):
        result, trace = flower_trace
        assert len(trace.records) == result.graph.num_vertices * 10

    def test_analytic_model_validated(self, flower_trace):
        _, trace = flower_trace
        assert trace.slowdown == pytest.approx(1.0, abs=0.05)
        assert trace.realized_makespan <= trace.analytic_makespan * 1.05

    def test_lateness_bounded(self, flower_trace):
        _, trace = flower_trace
        # transient vault contention may nudge instances, never cascades
        assert trace.max_lateness <= trace.config.edram_transfer_units(4096) * 4

    def test_dependencies_honored(self, flower_trace):
        result, trace = flower_trace
        finish = {(r.op_id, r.iteration): r.finish for r in trace.records}
        start = {(r.op_id, r.iteration): r.start for r in trace.records}
        for edge in result.graph.edges():
            for iteration in range(1, 11):
                producer = (edge.producer, iteration)
                consumer = (edge.consumer, iteration)
                assert finish[producer] <= start[consumer], (
                    f"instance {consumer} started before its input from "
                    f"{producer} was produced"
                )

    def test_no_pe_overlap(self, flower_trace):
        _, trace = flower_trace
        per_pe = {}
        for record in trace.records:
            per_pe.setdefault(record.pe, []).append(record)
        for records in per_pe.values():
            records.sort(key=lambda r: r.start)
            for left, right in zip(records, records[1:]):
                assert right.start >= left.finish

    def test_transfer_kinds_match_placement(self, flower_trace):
        result, trace = flower_trace
        from repro.pim.memory import Placement

        for transfer in trace.transfers:
            expected = result.schedule.placements[transfer.edge]
            if transfer.kind is TransferKind.CACHE:
                assert expected is Placement.CACHE
            # eDRAM transfers may also come from cache spills

    def test_traffic_accounted(self, flower_trace):
        _, trace = flower_trace
        assert trace.stats.total_bytes > 0
        assert trace.stats.alu_ops > 0

    def test_energy_report(self, flower_trace):
        _, trace = flower_trace
        report = trace.energy()
        assert report.total_pj > 0
        assert report.movement_pj <= report.total_pj

    def test_utilization_in_range(self, flower_trace):
        _, trace = flower_trace
        assert 0.0 < trace.pe_utilization() <= 1.0

    def test_invalid_iterations(self, flower_trace):
        result, _ = flower_trace
        with pytest.raises(SimulationError):
            ScheduleExecutor(result.config).execute(result, iterations=0)

    def test_deterministic(self):
        config = PimConfig(num_pes=8)
        result = ParaConv(config).run(synthetic_benchmark("cat"))
        a = ScheduleExecutor(config).execute(result, iterations=5)
        b = ScheduleExecutor(config).execute(result, iterations=5)
        assert a.records == b.records
        assert a.realized_makespan == b.realized_makespan


class TestFifoAccounting:
    def test_pfifo_traffic_recorded(self):
        config = PimConfig(num_pes=8, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("flower"))
        trace = ScheduleExecutor(replace(config, num_vaults=16)).execute(
            result, iterations=6
        )
        # every delivered intermediate result staged through a pFIFO
        # (unless its FIFO was transiently full)
        assert trace.stats.fifo_pushes > 0
        assert trace.stats.fifo_pushes <= len(trace.transfers)
