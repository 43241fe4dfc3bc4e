"""pFIFO consume order on a hand-built two-PE schedule.

Ops A (0) and D (1) run on PE 0, B (2) and E (3) on PE 1; the edges are
A -> B and D -> E, both cache-resident. Period 10, kernel offsets A/B at 0
and D/E at 5, retiming R(A) = R(D) = 2 and R(B) = R(E) = 0, so instance
``l`` of A/D runs in round ``l`` and instance ``l`` of B/E in round
``l + 2``. Before B^1 starts (t = 20) PE 1's pFIFO holds, in arrival
order, the data of A^1, D^1, A^2 and D^2: two instances of A -> B are
staged, interleaved with D -> E. pFIFO entries are edge rids, so entries
of one edge are equal and only their position relative to the other
edge's entries shows which instance B^1 took; ``fifo_entries`` decodes
each rid to its edge's ``((e0, e1), size_bytes)``.
"""

from types import SimpleNamespace

import pytest

from repro.core.schedule import ScheduleError
from repro.graph.taskgraph import IntermediateResult, Operation, TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement
from repro.sim.executor import ScheduleExecutor, _ScheduleRun
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink
from tests.builders import kernel_of, schedule_of

A, D, B, E = 0, 1, 2, 3
PERIOD = 10
SIZE = 64
AB = ((A, B), SIZE)
DE = ((D, E), SIZE)


def _plan():
    graph = TaskGraph("pfifo-order")
    for op_id in (A, D, B, E):
        graph.add_operation(Operation(op_id, execution_time=1))
    graph.add_edge(IntermediateResult(A, B, size_bytes=SIZE))
    graph.add_edge(IntermediateResult(D, E, size_bytes=SIZE))
    kernel = kernel_of(graph, PERIOD, {
        A: (0, 0, 1),
        D: (0, 5, 6),
        B: (1, 0, 1),
        E: (1, 5, 6),
    })
    schedule = schedule_of(
        graph,
        kernel,
        retiming={A: 2, D: 2, B: 0, E: 0},
        edge_retiming={(A, B): 2, (D, E): 2},
        placements={(A, B): Placement.CACHE, (D, E): Placement.CACHE},
        transfer_times={(A, B): 0, (D, E): 0},
    )
    return SimpleNamespace(
        graph=graph, schedule=schedule, group_width=2, num_groups=1
    )


CONFIG = PimConfig(num_pes=2, num_vaults=4)


def test_oldest_staged_instance_is_consumed_first():
    run = _ScheduleRun(
        CONFIG, _plan(), iterations=3, mode=SimMode.FULL_UNROLL,
        sink=NullSink(),
    )
    # Drive rounds 1 and 2 as ``execute`` does: materialize, then run to
    # the boundary.
    for iteration in (1, 2):
        run._materialize(iteration)
        run._run_until(iteration * PERIOD - 1)
    assert run.fifo_entries(1) == (AB, DE, AB, DE)
    assert run.trace.stats.fifo_pushes == 4
    # Round 3 opens with B^1's start at t = 20 (A^3's datum lands at 21).
    run._materialize(3)
    run._run_until(2 * PERIOD)
    # A^1's entry (the oldest) left; A^2's stays behind D^1's.
    assert run.fifo_entries(1) == (DE, AB, DE)
    # A^1..A^3, D^1, D^2 and B^1 have started by t = 20.
    assert run.trace.num_instances == 6


def test_fifo_pushes_hand_count():
    iterations = 5
    trace = ScheduleExecutor(CONFIG).execute(
        _plan(), iterations=iterations, sink=NullSink()
    )
    assert trace.cache_spills == 0
    assert trace.num_instances == 4 * iterations
    # One push per delivered datum: two edges per iteration, and PE 1's
    # pFIFO never holds more than four entries, far below its depth.
    assert trace.stats.fifo_pushes == 2 * iterations


def test_kernel_in_another_op_order_is_rejected():
    """The executor pairs the kernel's columns with the graph's index, so
    a kernel laid out in any other op order is refused, not misread."""
    plan = _plan()
    kernel = plan.schedule.kernel
    rows = {op_id: kernel.placement(op_id) for op_id in (B, E, A, D)}
    plan.schedule.kernel = kernel_of(None, PERIOD, {
        op_id: (row.pe, row.start, row.finish) for op_id, row in rows.items()
    })
    with pytest.raises(ScheduleError, match="kernel op mismatch"):
        ScheduleExecutor(CONFIG).execute(plan, iterations=2, sink=NullSink())
