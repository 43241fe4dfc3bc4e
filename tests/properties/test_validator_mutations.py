"""Metamorphic negative tests: the validators must catch corrupted schedules.

A validator that accepts everything proves nothing. These tests take
pipeline-produced (valid) schedules, apply targeted corruptions, and
assert each one is rejected -- so the green correctness tests elsewhere
actually certify something.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.paraconv import ParaConv
from repro.core.schedule import (
    ScheduleError,
    validate_kernel,
    validate_periodic_schedule,
)
from repro.graph.generators import SyntheticGraphGenerator
from repro.pim.config import PimConfig
from repro.verify.mutation import clone_result
from tests.builders import drop_row, set_row


def fresh_result(seed=3, pes=8):
    graph = SyntheticGraphGenerator().generate(18, 30, seed=seed)
    return ParaConv(PimConfig(num_pes=pes, iterations=100)).run(graph)


def clone_schedule(result):
    return clone_result(result).schedule


class TestPeriodicValidatorCatchesCorruption:
    def test_baseline_is_valid(self):
        validate_periodic_schedule(fresh_result().schedule)

    @given(seed=st.integers(min_value=0, max_value=50))
    @settings(max_examples=15, deadline=None)
    def test_dropping_retiming_on_a_loaded_edge_is_caught(self, seed):
        result = fresh_result(seed=seed)
        schedule = clone_schedule(result)
        # find an edge that genuinely *requires* crossing iterations
        kernel = schedule.kernel
        loaded = [
            e.key for e in result.graph.edges()
            if kernel.placement(e.producer).finish + schedule.transfer_times[e.key]
            > kernel.placement(e.consumer).start
        ]
        if not loaded:
            return  # nothing to corrupt in this instance
        producer, consumer = loaded[0]
        # flatten the producer's retiming to the consumer's level: the
        # data now arrives too late unless the edge was trivially slack
        schedule.retiming[producer] = schedule.retiming[consumer]
        with pytest.raises(ScheduleError):
            validate_periodic_schedule(schedule)

    def test_inflating_transfer_time_is_caught(self):
        result = fresh_result()
        schedule = clone_schedule(result)
        key = next(iter(schedule.transfer_times))
        schedule.transfer_times[key] = schedule.period + 1
        with pytest.raises(ScheduleError, match="exceeds period"):
            validate_periodic_schedule(schedule)

    def test_reversing_an_edge_retiming_is_caught(self):
        result = fresh_result()
        schedule = clone_schedule(result)
        edge = result.graph.edges()[0]
        schedule.retiming[edge.producer] = 0
        schedule.retiming[edge.consumer] = 5
        with pytest.raises(ScheduleError):
            validate_periodic_schedule(schedule)

    def test_corrupting_edge_retiming_band_is_caught(self):
        result = fresh_result()
        schedule = clone_schedule(result)
        key = next(iter(schedule.edge_retiming))
        schedule.edge_retiming[key] = 10_000
        with pytest.raises(ScheduleError, match="illegal retiming"):
            validate_periodic_schedule(schedule)


class TestKernelValidatorCatchesCorruption:
    def test_shifting_an_op_onto_a_colleague_is_caught(self):
        result = fresh_result()
        kernel = clone_schedule(result).kernel
        # find two ops on the same PE and make them collide
        by_pe = {}
        for op_id in kernel.op_ids:
            placement = kernel.placement(op_id)
            by_pe.setdefault(placement.pe, []).append(placement)
        pe, ops = next((pe, v) for pe, v in by_pe.items() if len(v) >= 2)
        ops.sort(key=lambda p: p.start)
        first, second = ops[0], ops[1]
        set_row(
            kernel, second.op_id, pe, first.start,
            first.start + second.duration,
        )
        with pytest.raises(ScheduleError, match="overlap"):
            validate_kernel(result.graph, kernel, result.group_width)

    def test_stretching_an_op_is_caught(self):
        result = fresh_result()
        kernel = clone_schedule(result).kernel
        placement = kernel.placement(kernel.op_ids[0])
        set_row(
            kernel, placement.op_id, placement.pe, placement.start,
            placement.finish + 1,
        )
        with pytest.raises(ScheduleError):
            validate_kernel(result.graph, kernel, result.group_width)

    def test_dropping_an_op_is_caught(self):
        result = fresh_result()
        kernel = clone_schedule(result).kernel
        drop_row(kernel, kernel.op_ids[-1])
        with pytest.raises(ScheduleError, match="mismatch"):
            validate_kernel(result.graph, kernel, result.group_width)


class TestExpansionVerifierCatchesCorruption:
    def test_verifier_accepts_then_rejects(self):
        from repro.core.expansion import expand, verify_expansion

        result = fresh_result()
        expanded = expand(result.schedule, iterations=4)
        verify_expansion(expanded)  # sanity: the real expansion passes
        # corrupt: pull one consumer instance earlier than its data
        loaded = [
            e for e in result.graph.edges()
            if result.schedule.transfer_times[e.key] > 0
            or result.schedule.relative_retiming(*e.key) > 0
        ]
        edge = loaded[0] if loaded else result.graph.edges()[0]
        victim = expanded.instance(edge.consumer, 2)
        producer = expanded.instance(edge.producer, 2)
        import dataclasses

        hacked = dataclasses.replace(
            victim,
            start=producer.start - 1,
            finish=producer.start - 1 + (victim.finish - victim.start),
        )
        expanded.instances[expanded.instances.index(victim)] = hacked
        with pytest.raises(ScheduleError):
            verify_expansion(expanded)
