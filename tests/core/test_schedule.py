"""Tests for schedule objects and the semantic validators."""

import pytest

from repro.core.retiming import analyze_edges
from repro.core.schedule import (
    KernelSchedule,
    PlacedOp,
    ScheduleError,
    validate_kernel,
    validate_periodic_schedule,
)
from repro.pim.config import PimConfig
from repro.pim.memory import Placement
from tests.builders import drop_row, kernel_of, schedule_of, set_row


class TestPlacedOp:
    def test_duration(self):
        op = PlacedOp(0, pe=1, start=2, finish=5)
        assert op.duration == 3

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"start": -1, "finish": 1},
            {"start": 3, "finish": 3},
            {"start": 3, "finish": 2},
            {"start": 0, "finish": 1, "pe": -1},
        ],
    )
    def test_invalid_windows_rejected(self, diamond_graph, kwargs):
        # A placement is a view of a kernel row; validate_kernel checks it.
        base = {"op_id": 0, "pe": 0, "start": 0, "finish": 1}
        base.update(kwargs)
        kernel = _manual_kernel(diamond_graph)
        set_row(kernel, 0, base["pe"], base["start"], base["finish"])
        with pytest.raises(ScheduleError, match="op 0: (invalid window|negative PE)"):
            validate_kernel(diamond_graph, kernel, 2)


class TestKernelSchedule:
    def test_accessors(self):
        kernel = kernel_of(None, 5, {0: (0, 0, 2), 1: (1, 1, 4)})
        assert kernel.placement(0).start == 0
        assert kernel.placement(1).finish == 4
        assert kernel.placement(1).pe == 1
        assert kernel.placement(1) == PlacedOp(1, 1, 1, 4)
        assert kernel.makespan() == 4
        assert kernel.pes_used() == 2
        assert kernel.utilization(2) == pytest.approx(5 / 10)

    def test_missing_op_raises(self):
        kernel = KernelSchedule(period=5)
        with pytest.raises(ScheduleError, match="missing"):
            kernel.placement(3)

    @pytest.mark.parametrize("dropped", [0, 3])
    def test_edge_analysis_names_missing_op(self, diamond_graph, dropped):
        # Op 0 is only ever a producer and op 3 only ever a consumer, so
        # both lookups of the analysis are covered.
        kernel = _manual_kernel(diamond_graph)
        drop_row(kernel, dropped)
        with pytest.raises(ScheduleError, match=f"op {dropped} missing"):
            analyze_edges(diamond_graph, kernel, PimConfig(num_pes=2))

    @pytest.mark.parametrize("dropped", [0, 3])
    def test_schedule_validation_names_missing_op(self, diamond_graph, dropped):
        schedule = _periodic(diamond_graph, {0: 2, 1: 1, 2: 1, 3: 0})
        drop_row(schedule.kernel, dropped)
        with pytest.raises(ScheduleError, match=f"op {dropped} missing"):
            validate_periodic_schedule(schedule)


def _manual_kernel(diamond_graph, period=3):
    # valid hand schedule: T0 on PE0 [0,1), T1 PE0 [1,3), T2 PE1 [1,3),
    # T3 PE1... needs T3 after, use period 4 instead
    return kernel_of(
        diamond_graph, 4, {0: (0, 0, 1), 1: (0, 1, 3), 2: (1, 0, 2), 3: (1, 2, 3)}
    )


class TestValidateKernel:
    def test_valid_kernel_passes(self, diamond_graph):
        validate_kernel(diamond_graph, _manual_kernel(diamond_graph), num_pes=2)

    def test_missing_op_detected(self, diamond_graph):
        kernel = _manual_kernel(diamond_graph)
        drop_row(kernel, 3)
        with pytest.raises(ScheduleError, match="mismatch"):
            validate_kernel(diamond_graph, kernel, 2)

    def test_pe_out_of_range_detected(self, diamond_graph):
        kernel = _manual_kernel(diamond_graph)
        set_row(kernel, 0, 7, 0, 1)
        with pytest.raises(ScheduleError, match="only 2 PEs"):
            validate_kernel(diamond_graph, kernel, 2)

    @pytest.mark.parametrize("pe", [2, 7])
    def test_pe_out_of_range_detected_before_duration_lookup(
        self, diamond_graph, pe
    ):
        """``duration_of`` (a heterogeneous array's speeds) only sees PEs
        inside the range: a PE outside it is the typed range error."""
        kernel = _manual_kernel(diamond_graph)
        set_row(kernel, 2, pe, 0, 2)

        def duration_of(op_id, pe):
            assert 0 <= pe < 2, f"duration looked up on PE {pe}"
            return diamond_graph.operation(op_id).execution_time

        with pytest.raises(ScheduleError, match=f"op 2 on PE {pe} but only 2"):
            validate_kernel(diamond_graph, kernel, 2, duration_of=duration_of)

    def test_period_overrun_detected(self, diamond_graph):
        kernel = _manual_kernel(diamond_graph)
        set_row(kernel, 3, 1, 4, 5)
        with pytest.raises(ScheduleError, match="past"):
            validate_kernel(diamond_graph, kernel, 2)

    def test_wrong_duration_detected(self, diamond_graph):
        kernel = _manual_kernel(diamond_graph)
        set_row(kernel, 1, 0, 1, 2)  # c_1 is 2, not 1
        with pytest.raises(ScheduleError, match="occupies"):
            validate_kernel(diamond_graph, kernel, 2)

    def test_overlap_detected(self, diamond_graph):
        kernel = _manual_kernel(diamond_graph)
        set_row(kernel, 2, 0, 0, 2)  # collides with T0/T1
        with pytest.raises(ScheduleError, match="overlap"):
            validate_kernel(diamond_graph, kernel, 2)


def _periodic(diamond_graph, retiming, placements=None, transfers=None):
    kernel = _manual_kernel(diamond_graph)
    edge_keys = [e.key for e in diamond_graph.edges()]
    placement_map = placements or {k: Placement.CACHE for k in edge_keys}
    transfer_map = transfers or {k: 0 for k in edge_keys}
    edge_retiming = {
        k: retiming[k[1]] for k in edge_keys
    }
    return schedule_of(
        diamond_graph, kernel, retiming, edge_retiming, placement_map,
        transfer_map,
    )


class TestPeriodicSchedule:
    def test_metrics(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: 2, 1: 1, 2: 1, 3: 0})
        assert schedule.period == 4
        assert schedule.max_retiming == 2
        assert schedule.prologue_time == 8
        assert schedule.total_time(10) == 8 + 40
        assert schedule.relative_retiming(0, 1) == 1

    def test_total_time_rejects_zero(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: 0, 1: 0, 2: 0, 3: 0})
        with pytest.raises(ScheduleError):
            schedule.total_time(0)

    def test_cached_edges(self, diamond_graph):
        placements = {
            (0, 1): Placement.CACHE,
            (0, 2): Placement.EDRAM,
            (1, 3): Placement.CACHE,
            (2, 3): Placement.EDRAM,
        }
        schedule = _periodic(
            diamond_graph, {0: 1, 1: 0, 2: 1, 3: 0}, placements=placements,
            transfers={k: 1 for k in placements},
        )
        assert set(schedule.cached_edges()) == {(0, 1), (1, 3)}

    def test_prologue_rounds(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: 2, 1: 1, 2: 1, 3: 0})
        rounds = schedule.prologue_rounds()
        assert rounds == [[0], [0, 1, 2]]


class TestValidatePeriodicSchedule:
    def test_valid_retiming_passes(self, diamond_graph):
        # T1 finishes at 3 but T3 starts at 2: edge (1,3) needs delta >= 1
        schedule = _periodic(diamond_graph, {0: 2, 1: 1, 2: 1, 3: 0})
        validate_periodic_schedule(schedule)

    def test_data_arrival_violation_detected(self, diamond_graph):
        # zero retiming: edge (1,3) data arrives at 3 after T3 starts at 2
        schedule = _periodic(diamond_graph, {0: 0, 1: 0, 2: 0, 3: 0})
        with pytest.raises(ScheduleError, match="arrives"):
            validate_periodic_schedule(schedule)

    def test_dependency_direction_violation(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: 0, 1: 1, 2: 1, 3: 2})
        with pytest.raises(ScheduleError, match="breaks the dependency"):
            validate_periodic_schedule(schedule)

    def test_negative_retiming_rejected(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: -1, 1: 0, 2: 0, 3: 0})
        with pytest.raises(ScheduleError, match="negative"):
            validate_periodic_schedule(schedule)

    def test_transfer_longer_than_period_rejected(self, diamond_graph):
        schedule = _periodic(
            diamond_graph,
            {0: 2, 1: 1, 2: 1, 3: 0},
            transfers={k.key: 99 for k in diamond_graph.edges()},
        )
        with pytest.raises(ScheduleError, match="exceeds period"):
            validate_periodic_schedule(schedule)

    def test_missing_placement_rejected(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: 2, 1: 1, 2: 1, 3: 0})
        del schedule.placements[(0, 1)]
        with pytest.raises(ScheduleError, match="no placement"):
            validate_periodic_schedule(schedule)

    def test_illegal_edge_retiming_rejected(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: 2, 1: 1, 2: 1, 3: 0})
        schedule.edge_retiming[(0, 1)] = 5  # outside [R(j), R(i)] = [1, 2]
        with pytest.raises(ScheduleError, match="illegal retiming"):
            validate_periodic_schedule(schedule)

    def test_legality_check_can_be_skipped(self, diamond_graph):
        schedule = _periodic(diamond_graph, {0: 2, 1: 1, 2: 1, 3: 0})
        schedule.edge_retiming.clear()
        validate_periodic_schedule(schedule, check_legality=False)
