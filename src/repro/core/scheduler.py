"""Schedulers: compacted steady-state kernel and dependency-honoring list.

Two schedulers cover the paper's two regimes:

* :func:`compact_kernel_schedule` -- after retiming, intra-iteration
  dependencies are gone, so the kernel is a pure load-balancing problem:
  every operation of one iteration is packed onto the PE array as tightly
  as possible (Figure 3(b): "all convolution operations in each iteration
  are compacted to achieve the minimum execution time"). LPT list
  scheduling gives the period ``p``.
* :func:`list_schedule` -- the classic resource-constrained list scheduler
  honoring intra-iteration dependencies and per-edge transfer latencies;
  this is what the un-retimed baseline executes (Figure 3(a)) and what
  SPARTA builds on.

Every scheduler here, the two heterogeneous ones included, writes the
kernel's ``pe``/``start``/``finish`` columns by vertex of the graph's
index (:meth:`~repro.graph.taskgraph.TaskGraph.index`) and builds no
:class:`~repro.core.schedule.PlacedOp`;
:func:`~repro.core.schedule.validate_kernel` checks the result.
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.schedule import KernelSchedule, ScheduleError
from repro.graph.taskgraph import IntermediateResult, Operation, TaskGraph

EdgeLatency = Callable[[IntermediateResult], int]

#: Packing orders the kernel compactors accept, sorted.
KERNEL_ORDERS = ("lpt", "topological")


def load_balance_bound(graph: TaskGraph, num_pes: int) -> int:
    """Lower bound on any kernel period: ``max(ceil(Σc_i / P), max c_i)``."""
    if num_pes < 1:
        raise ScheduleError("num_pes must be >= 1")
    if graph.num_vertices == 0:
        return 0
    return max(
        math.ceil(graph.total_work() / num_pes),
        graph.max_execution_time(),
    )


def packing_order(
    graph: TaskGraph,
    order: str = "topological",
    levels: Optional[Dict[int, int]] = None,
) -> Tuple[Tuple[int, int], ...]:
    """The ``(op_id, execution_time)`` pairs in kernel packing order.

    ``order="topological"`` sorts by ``(ASAP level, -execution time,
    op_id)``; ``order="lpt"`` by ``(-execution time, op_id)``. Neither key
    depends on the group width, so the width search sorts each graph
    once and packs every candidate width from the same order.
    ``levels`` may carry precomputed ASAP levels; when omitted they are
    computed here, identically.
    """
    if order == "topological":
        if levels is None:
            from repro.graph.analysis import asap_levels

            levels = asap_levels(graph)
        ordered = sorted(
            graph.operations(),
            key=lambda op: (levels[op.op_id], -op.execution_time, op.op_id),
        )
    elif order == "lpt":
        ordered = sorted(
            graph.operations(), key=lambda op: (-op.execution_time, op.op_id)
        )
    else:
        raise ScheduleError(
            f"unknown packing order {order!r}; choose from "
            f"{', '.join(KERNEL_ORDERS)}"
        )
    return tuple((op.op_id, op.execution_time) for op in ordered)


def compact_kernel_schedule(
    graph: TaskGraph,
    num_pes: int,
    order: str = "topological",
    packing: Optional[Sequence[Tuple[int, int]]] = None,
) -> KernelSchedule:
    """Pack one dependency-free iteration onto ``num_pes`` PEs.

    After retiming, intra-iteration edges impose no ordering, so any greedy
    list assignment to the earliest-available PE is feasible; the makespan
    is the steady-state period ``p``.

    Packing order still matters for *retiming depth*: with
    ``order="topological"`` (default), operations are packed by ASAP level,
    so producers land before their consumers within the window and most
    cache-resident edges need no retiming at all -- eDRAM latency becomes
    the dominant cause of prologue iterations, which is the effect the
    paper's allocation problem optimizes. ``order="lpt"``
    (longest-processing-time first) packs tighter on pathological execution
    -time mixes and is kept for ablation.

    ``packing`` may carry :func:`packing_order` of the same graph and
    order (width-invariant), so the width search sorts once per graph
    instead of once per candidate width; when omitted it is computed
    here, identically.
    """
    if num_pes < 1:
        raise ScheduleError("num_pes must be >= 1")
    if packing is None:
        packing = packing_order(graph, order)
    index = graph.index()
    position = index.position
    pes = [0] * len(position)
    starts = [0] * len(position)
    finishes = [0] * len(position)
    # (free_at, pe) pairs: the heap minimum is the earliest-free PE, the
    # lowest index among equally free ones.
    free = [(0, pe) for pe in range(num_pes)]
    for op_id, execution_time in packing:
        start, pe = free[0]
        finish = start + execution_time
        heapq.heapreplace(free, (finish, pe))
        v = position[op_id]
        pes[v] = pe
        starts[v] = start
        finishes[v] = finish
    period = max(free)[0] if position else 0
    return KernelSchedule(period, index.op_ids, pes, starts, finishes)


#: Smallest PE group an iteration may be mapped onto. Serializing a whole
#: iteration onto one PE abandons intra-iteration parallelism (and with it
#: the FIFO-streaming execution model both schemes assume), so replication
#: never shrinks a group below two PEs on multi-PE arrays.
MIN_GROUP_WIDTH = 2


def candidate_group_widths(num_pes: int) -> List[int]:
    """Distinct PE-group widths that tile the array without stranding PEs.

    Candidates are ``num_pes // J`` for ``J = 1, 2, ...`` down to
    :data:`MIN_GROUP_WIDTH` (or 1 when the array itself is smaller),
    deduplicated, widest first. Both Para-CONV and the SPARTA baseline
    choose their operating point from this same set, so comparisons isolate
    scheduling quality rather than array-partitioning policy.
    """
    if num_pes < 1:
        raise ScheduleError("num_pes must be >= 1")
    floor = min(MIN_GROUP_WIDTH, num_pes)
    widths: List[int] = []
    for groups in range(1, num_pes + 1):
        width = num_pes // groups
        if width < floor:
            break
        if not widths or widths[-1] != width:
            widths.append(width)
    return widths


def list_schedule(
    graph: TaskGraph,
    num_pes: int,
    edge_latency: Optional[EdgeLatency] = None,
    priority: Optional[Dict[int, int]] = None,
) -> KernelSchedule:
    """Dependency-honoring list schedule of one iteration.

    Operations become ready when all predecessors have finished *and* their
    intermediate results have arrived (``finish(pred) + latency(edge)``).
    Ready operations are dispatched by descending priority (default:
    critical-path distance to a sink), then ``op_id``, each to the PE that
    can start it earliest.

    The returned :class:`KernelSchedule` has ``period`` equal to the
    makespan including transfer latencies -- the baseline's per-iteration
    execution time ``L``.
    """
    if num_pes < 1:
        raise ScheduleError("num_pes must be >= 1")
    return _list_schedule(
        graph, num_pes, lambda op, pe: op.execution_time, edge_latency, priority
    )


def compact_kernel_schedule_heterogeneous(
    graph: TaskGraph, array, order: str = "topological"
) -> KernelSchedule:
    """Dependency-free packing onto a heterogeneous PE array.

    Earliest-finish-time greedy: each operation (in the same orders as
    :func:`compact_kernel_schedule`) goes to the PE where it *finishes*
    first given that PE's speed, which naturally keeps long operations on
    fast PEs. ``array`` is a
    :class:`repro.pim.heterogeneous.HeterogeneousArray`.
    """
    num_pes = array.config.num_pes
    if num_pes < 1:
        raise ScheduleError("array needs >= 1 PE")
    free_at = [0] * num_pes
    index = graph.index()
    pes, starts, finishes = ([0] * len(index.op_ids) for _ in range(3))
    for op_id, execution_time in packing_order(graph, order):
        finish, pe, start = min(
            (free_at[k] + array.effective_time(execution_time, k), k, free_at[k])
            for k in range(num_pes)
        )
        free_at[pe] = finish
        v = index.position[op_id]
        pes[v], starts[v], finishes[v] = pe, start, finish
    period = max(free_at) if index.op_ids else 0
    return KernelSchedule(period, index.op_ids, pes, starts, finishes)


def list_schedule_heterogeneous(
    graph: TaskGraph,
    array,
    edge_latency: Optional[EdgeLatency] = None,
    priority: Optional[Dict[int, int]] = None,
    extra_occupancy: Optional[Dict[int, int]] = None,
) -> KernelSchedule:
    """Dependency-honoring list schedule on a heterogeneous array (EFT).

    Like :func:`list_schedule`, but each ready operation is dispatched to
    the PE where it finishes earliest under that PE's speed -- the HEFT
    dispatch rule, which is what a heterogeneity-aware runtime allocator
    (SPARTA's home turf) would do. ``extra_occupancy`` adds per-operation
    time that does *not* scale with PE speed (memory stalls).
    """
    num_pes = array.config.num_pes
    if num_pes < 1:
        raise ScheduleError("array needs >= 1 PE")
    stalls = extra_occupancy or {}
    return _list_schedule(
        graph,
        num_pes,
        lambda op, pe: array.effective_time(op.execution_time, pe)
        + stalls.get(op.op_id, 0),
        edge_latency,
        priority,
    )


def _list_schedule(
    graph: TaskGraph,
    num_pes: int,
    duration: Callable[[Operation, int], int],
    edge_latency: Optional[EdgeLatency],
    priority: Optional[Dict[int, int]],
) -> KernelSchedule:
    """The list schedulers' common loop: each ready op goes to the PE
    where it finishes first (the lowest such PE), taking
    ``duration(op, pe)`` there. With every PE equally fast that is the PE
    that can start it earliest."""
    latency = edge_latency or (lambda _e: 0)
    prio = priority or downward_rank(graph, latency)
    remaining_preds = {
        op.op_id: graph.in_degree(op.op_id) for op in graph.operations()
    }
    data_ready: Dict[int, int] = {op.op_id: 0 for op in graph.operations()}
    ready = [op_id for op_id, n in remaining_preds.items() if n == 0]
    free_at = [0] * num_pes
    index = graph.index()
    pes, starts, finishes = ([0] * len(index.op_ids) for _ in range(3))

    while ready:
        ready.sort(key=lambda i: (-prio[i], i))
        op_id = ready.pop(0)
        op = graph.operation(op_id)
        earliest = data_ready[op_id]
        finish, pe, start = min(
            (max(free_at[k], earliest) + duration(op, k), k,
             max(free_at[k], earliest))
            for k in range(num_pes)
        )
        free_at[pe] = finish
        v = index.position[op_id]
        pes[v], starts[v], finishes[v] = pe, start, finish
        for edge in graph.out_edges(op_id):
            succ = edge.consumer
            data_ready[succ] = max(data_ready[succ], finish + latency(edge))
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.append(succ)
    return KernelSchedule(
        max(finishes, default=0), index.op_ids, pes, starts, finishes
    )


def downward_rank(graph: TaskGraph, edge_latency: EdgeLatency) -> Dict[int, int]:
    """Critical-path-to-sink priority for list scheduling (HEFT-style).

    ``rank(i) = c_i + max over out-edges (latency + rank(consumer))``.
    """
    rank: Dict[int, int] = {}
    for op_id in reversed(graph.topological_order()):
        op = graph.operation(op_id)
        best = 0
        for edge in graph.out_edges(op_id):
            best = max(best, edge_latency(edge) + rank[edge.consumer])
        rank[op_id] = op.execution_time + best
    return rank

