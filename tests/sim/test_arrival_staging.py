"""pFIFO staging order of transfer arrivals on hand-built schedules.

A transfer's arrival time is known when its producer finishes, and a
result that reaches its consumer PE is staged in that PE's pFIFO at the
arrival time, in event-key order ``(time, prio, iteration, rid)``. Each
schedule below puts arrivals in one of the places where that order is
easy to get wrong:

* ``same_time``: a cache result that lands the moment it is produced,
  while an earlier eDRAM fetch to the same PE is due, and two later
  fetches issued in the opposite order of their arrival times;
* ``boundary``: one fetch that lands exactly on a round boundary and one
  issued before the boundary that lands after it;
* ``timed_cache``: a cache transfer that takes time (``cache_units >
  0``) landing at the same time as, and with a higher rid than, a cache
  result that lands at once;
* ``smallest_fetch``: a 1-byte eDRAM fetch, which still takes one unit of
  vault service (an edge cannot be empty, so no eDRAM fetch lands at the
  time it is issued), beside a cache result that spills.

Each case runs round by round as ``execute`` does, and at every boundary
the pFIFO entries, ``fifo_pushes``, the events processed and the state
fingerprint (against the boundary, and against time 0, where no clock is
clamped) must equal the values the simulator produced when every arrival
was an event of its own on the global heap.
"""

from types import SimpleNamespace

import pytest

from repro.graph.taskgraph import IntermediateResult, Operation, TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement
from repro.sim.executor import ScheduleExecutor, _ScheduleRun
from repro.sim.modes import SimMode
from repro.sim.sinks import InMemorySink, NullSink
from tests.builders import kernel_of, schedule_of

PERIOD = 10
CACHE = Placement.CACHE
EDRAM = Placement.EDRAM


def _plan(name, ops, edges, width):
    """A one-group plan from ``{op: (pe, start, finish, R)}`` and
    ``{(producer, consumer): (size_bytes, placement)}``."""
    graph = TaskGraph(name)
    for op_id in sorted(ops):
        _, start, finish, _ = ops[op_id]
        graph.add_operation(Operation(op_id, execution_time=finish - start))
    for (producer, consumer), (size, _) in sorted(edges.items()):
        graph.add_edge(IntermediateResult(producer, consumer, size_bytes=size))
    retiming = {op_id: row[3] for op_id, row in ops.items()}
    kernel = kernel_of(graph, PERIOD, {
        op_id: (pe, start, finish) for op_id, (pe, start, finish, _) in ops.items()
    })
    schedule = schedule_of(
        graph,
        kernel,
        retiming=retiming,
        edge_retiming={
            key: retiming[key[0]] - retiming[key[1]] for key in edges
        },
        placements={key: placement for key, (_, placement) in edges.items()},
        transfer_times={key: 0 for key in edges},
    )
    return SimpleNamespace(
        graph=graph, schedule=schedule, group_width=width, num_groups=1
    )


#: name -> (plan, machine, consumer PE, iterations)
CASES = {
    # P1 (PE 0) fetches from eDRAM, due at t=2; P2 (PE 2) hands its
    # result over the cache at t=6, the moment it finishes; P3 (PE 3)
    # issues a long fetch at t=5 and P4 (PE 0) a short one at t=7, which
    # lands first. C (PE 1) runs a round later and consumes all four.
    "same_time": (
        _plan(
            "same-time",
            {
                0: (0, 0, 1, 1),   # P1
                1: (2, 5, 6, 1),   # P2
                2: (3, 4, 5, 1),   # P3
                3: (0, 6, 7, 1),   # P4
                4: (1, 0, 1, 0),   # C
            },
            {
                (0, 4): (64, EDRAM),
                (1, 4): (64, CACHE),
                (2, 4): (8192, EDRAM),
                (3, 4): (64, EDRAM),
            },
            width=4,
        ),
        PimConfig(num_pes=4, num_vaults=4),
        1,
        4,
    ),
    # Q1 (PE 0) finishes at t=6 and its 4-unit fetch lands at t=10, on
    # the boundary; Q2 (PE 2) finishes at t=8 and its fetch lands after
    # it. F (PE 1) runs two rounds later, so both wait a round in its
    # pFIFO.
    "boundary": (
        _plan(
            "boundary",
            {
                0: (0, 0, 6, 2),   # Q1
                1: (2, 0, 8, 2),   # Q2
                2: (1, 3, 4, 0),   # F
            },
            {(0, 2): (8192, EDRAM), (1, 2): (8192, EDRAM)},
            width=3,
        ),
        PimConfig(num_pes=3, num_vaults=4),
        1,
        4,
    ),
    # At 64 bytes per unit, D's 128-byte cache result takes 2 units and
    # lands at t=3; A's 32-byte one lands at once when A finishes at
    # t=3. A -> B has the lower rid, yet B's PE stages D -> B first: it
    # was due before A's production event.
    "timed_cache": (
        _plan(
            "timed-cache",
            {
                0: (0, 2, 3, 1),   # A
                1: (0, 0, 1, 1),   # D
                2: (1, 0, 1, 0),   # B
            },
            {(0, 2): (32, CACHE), (1, 2): (128, CACHE)},
            width=2,
        ),
        PimConfig(num_pes=2, num_vaults=4, cache_bytes_per_unit=64),
        1,
        4,
    ),
    # X's 1-byte eDRAM fetch lands one unit after X finishes. Z's
    # cache result lives two rounds and the group holds one slot, so
    # every other instance spills to eDRAM.
    "smallest_fetch": (
        _plan(
            "smallest-fetch",
            {
                0: (0, 0, 1, 2),   # X
                1: (0, 2, 3, 2),   # Z
                2: (1, 5, 6, 0),   # Y
            },
            {(0, 2): (1, EDRAM), (1, 2): (512, CACHE)},
            width=2,
        ),
        PimConfig(num_pes=2, num_vaults=4, cache_bytes_per_pe=256),
        1,
        5,
    ),
}


def boundary_rows(plan, machine, consumer_pe, iterations):
    """Per round boundary: ``(round, consumer pFIFO, fifo_pushes, events
    processed, fingerprint at the boundary, fingerprint against 0)``."""
    run = _ScheduleRun(
        machine, plan, iterations, SimMode.FULL_UNROLL, NullSink()
    )
    rows = []
    boundary = 0
    while run._heap or run._next_iteration <= iterations:
        boundary += 1
        if run._next_iteration <= min(boundary, iterations):
            run._materialize(run._next_iteration)
            run._next_iteration += 1
        time = boundary * PERIOD
        run._run_until(time - 1)
        rows.append((
            boundary,
            tuple(edge for edge, _ in run.fifo_entries(consumer_pe)),
            run.trace.stats.fifo_pushes,
            run._processed,
            run._fingerprint(time, boundary),
            run._fingerprint(0, 0),
        ))
    return rows


#: frozen from the simulator that queued every arrival on the global heap.
EXPECTED = {
    "boundary": [
        (1, (), 0, 4, "af752907d6805449", "c436dd3dcf215749"),
        (2, ((0, 2), (1, 2)), 2, 10, "ed9dd1ffe247c416", "7f428582842e1a99"),
        (3, ((0, 2), (1, 2)), 4, 18, "ed9dd1ffe247c416", "d4d863009d526980"),
        (4, ((0, 2), (1, 2)), 6, 26, "ed9dd1ffe247c416", "2a83fd9908b2f887"),
        (5, ((0, 2), (1, 2)), 8, 30, "23e8b03c6fac6e6e", "d94c2b2bf6d49172"),
        (6, (), 8, 32, "703383bb898dbb00", "63f36b0c822dc5d4"),
    ],
    "same_time": [
        (1, ((0, 4), (1, 4), (3, 4), (2, 4)), 4, 12,
         "a908dc837adec6e5", "4f95abc3d6724f10"),
        (2, ((0, 4), (1, 4), (3, 4), (2, 4)), 8, 26,
         "a908dc837adec6e5", "3a0ab874c742134b"),
        (3, ((0, 4), (1, 4), (3, 4), (2, 4)), 12, 40,
         "a908dc837adec6e5", "30ffb715696fd29b"),
        (4, ((0, 4), (1, 4), (3, 4), (2, 4)), 16, 54,
         "a908dc837adec6e5", "1653e4e450df6b15"),
        (5, (), 16, 56, "38c29ba30af7a38c", "dc14497bfbc2a76f"),
    ],
    "smallest_fetch": [
        (1, ((0, 2), (1, 2)), 2, 6, "4ec65598610a032b", "2a04ff3f59cc3731"),
        (2, ((0, 2), (1, 2), (0, 2), (1, 2)), 4, 12,
         "acdc960fa1541a3f", "dd98297aba8b30a0"),
        (3, ((0, 2), (1, 2), (0, 2), (1, 2)), 6, 20,
         "b5b45e3016065681", "85ffd7705b48c6e9"),
        (4, ((0, 2), (1, 2), (0, 2), (1, 2)), 8, 28,
         "bb1eea47ed685826", "3c4be31d90b827ab"),
        (5, ((0, 2), (1, 2), (0, 2), (1, 2)), 10, 36,
         "acdc960fa1541a3f", "e6c63b20d53eb7ef"),
        (6, ((0, 2), (1, 2)), 10, 38, "151967b2a0dd4b29", "e0395f352e3f1e16"),
        (7, (), 10, 40, "0126facf10a341bc", "3100a3cf08ca4ad6"),
    ],
    "timed_cache": [
        (1, ((1, 2), (0, 2)), 2, 6, "7f807acd0e74f41e", "763ccb6a62009b29"),
        (2, ((1, 2), (0, 2)), 4, 14, "7f807acd0e74f41e", "980155856639ad90"),
        (3, ((1, 2), (0, 2)), 6, 22, "7f807acd0e74f41e", "f7a3186b56a9e3da"),
        (4, ((1, 2), (0, 2)), 8, 30, "7f807acd0e74f41e", "bf892e25aa2e5a76"),
        (5, (), 8, 32, "0126facf10a341bc", "7945a8fb986e2b53"),
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_boundaries_match_heap_order(name):
    assert boundary_rows(*CASES[name]) == EXPECTED[name]


def test_scenarios_arrive_where_described():
    """The transfer records show each case's arrivals where its comment
    puts them, so the frozen rows test what they claim to."""
    def arrivals(name):
        plan, machine, _, _ = CASES[name]
        trace = ScheduleExecutor(machine).execute(
            plan, 1, sink=InMemorySink()
        )
        return {
            t.edge: (t.kind.value, t.issued, t.completed)
            for t in trace.transfers
        }

    assert arrivals("same_time") == {
        (0, 4): ("edram", 1, 2),
        (1, 4): ("cache", 6, 6),
        (2, 4): ("edram", 5, 9),
        (3, 4): ("edram", 7, 8),
    }
    boundary = arrivals("boundary")
    assert boundary[(0, 2)] == ("edram", 6, 10)
    assert boundary[(1, 2)][1] == 8 and boundary[(1, 2)][2] > 10
    assert arrivals("timed_cache") == {
        (0, 2): ("cache", 3, 3),
        (1, 2): ("cache", 1, 3),
    }
    assert arrivals("smallest_fetch")[(0, 2)] == ("edram", 1, 2)
    plan, machine, _, iterations = CASES["smallest_fetch"]
    trace = ScheduleExecutor(machine).execute(
        plan, iterations, sink=NullSink()
    )
    assert trace.cache_spills > 0
