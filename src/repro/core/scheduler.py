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
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional

from repro.core.schedule import KernelSchedule, PlacedOp, ScheduleError
from repro.graph.taskgraph import IntermediateResult, TaskGraph

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


def compact_kernel_schedule(
    graph: TaskGraph,
    num_pes: int,
    order: str = "topological",
    levels: Optional[Dict[int, int]] = None,
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

    ``levels`` may carry precomputed ASAP levels (width-invariant) so the
    width search pays the level analysis once per graph instead of once
    per candidate width; when omitted it is computed here, identically.
    """
    if num_pes < 1:
        raise ScheduleError("num_pes must be >= 1")
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
    # (free_at, pe) pairs: the heap minimum is the earliest-free PE, the
    # lowest index among equally free ones.
    free = [(0, pe) for pe in range(num_pes)]
    placements: Dict[int, PlacedOp] = {}
    for op in ordered:
        start, pe = free[0]
        finish = start + op.execution_time
        heapq.heapreplace(free, (finish, pe))
        placements[op.op_id] = PlacedOp(op.op_id, pe, start, finish)
    period = max(free)[0] if placements else 0
    return KernelSchedule(period=period, placements=placements)


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


def choose_group_width(
    graph: TaskGraph, num_pes: int, utilization_target: float = 0.75
) -> int:
    """Widest PE group one iteration can keep busy (paper Section 2.3).

    When the array is wider than one iteration's parallelism, iterations
    are replicated across PE groups (the motivational example maps two
    iterations onto two PE pairs). To avoid stranding PEs, candidate
    widths are ``num_pes // J`` for group counts ``J = 1, 2, ...``; the
    first (widest) candidate whose compacted kernel keeps at least
    ``utilization_target`` of the group busy wins -- intra-iteration
    parallelism is preferred, extra groups are added only once a single
    iteration cannot fill the array. Falls back to the best-utilization
    candidate when no width meets the target (tiny graphs on wide arrays).

    Both Para-CONV and the SPARTA baseline use this same policy, so the
    comparison isolates scheduling quality, not array partitioning.
    """
    if not 0 < utilization_target <= 1:
        raise ScheduleError("utilization_target must be in (0, 1]")
    if num_pes < 1:
        raise ScheduleError("num_pes must be >= 1")
    total = graph.total_work()
    max_exec = graph.max_execution_time()
    best_width, best_util = num_pes, -1.0
    seen = set()
    for groups in range(1, num_pes + 1):
        width = num_pes // groups
        if width in seen:
            continue
        seen.add(width)
        period = max(math.ceil(total / width), max_exec)
        utilization = total / (width * period)
        if utilization >= utilization_target:
            return width
        if utilization > best_util:
            best_width, best_util = width, utilization
    return best_width


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
    latency = edge_latency or (lambda _e: 0)
    prio = priority or downward_rank(graph, latency)

    remaining_preds = {
        op.op_id: graph.in_degree(op.op_id) for op in graph.operations()
    }
    data_ready: Dict[int, int] = {op.op_id: 0 for op in graph.operations()}
    ready = [op_id for op_id, n in remaining_preds.items() if n == 0]
    free_at = [0] * num_pes
    placements: Dict[int, PlacedOp] = {}

    while ready:
        ready.sort(key=lambda i: (-prio[i], i))
        op_id = ready.pop(0)
        op = graph.operation(op_id)
        earliest = data_ready[op_id]
        pe = min(range(num_pes), key=lambda k: (max(free_at[k], earliest), k))
        start = max(free_at[pe], earliest)
        finish = start + op.execution_time
        free_at[pe] = finish
        placements[op_id] = PlacedOp(op_id, pe, start, finish)
        for edge in graph.out_edges(op_id):
            succ = edge.consumer
            data_ready[succ] = max(data_ready[succ], finish + latency(edge))
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.append(succ)

    if len(placements) != graph.num_vertices:
        raise ScheduleError(
            "list scheduler stalled; the graph contains a cycle"
        )
    period = max((p.finish for p in placements.values()), default=0)
    return KernelSchedule(period=period, placements=placements)


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
    if order == "topological":
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
    free_at = [0] * num_pes
    placements: Dict[int, PlacedOp] = {}
    for op in ordered:
        best_pe, best_finish, best_start = None, None, None
        for pe in range(num_pes):
            duration = array.effective_time(op.execution_time, pe)
            start = free_at[pe]
            finish = start + duration
            if best_finish is None or finish < best_finish:
                best_pe, best_finish, best_start = pe, finish, start
        free_at[best_pe] = best_finish
        placements[op.op_id] = PlacedOp(
            op.op_id, best_pe, best_start, best_finish
        )
    period = max(free_at) if placements else 0
    return KernelSchedule(period=period, placements=placements)


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
    latency = edge_latency or (lambda _e: 0)
    prio = priority or downward_rank(graph, latency)

    remaining_preds = {
        op.op_id: graph.in_degree(op.op_id) for op in graph.operations()
    }
    data_ready: Dict[int, int] = {op.op_id: 0 for op in graph.operations()}
    ready = [op_id for op_id, n in remaining_preds.items() if n == 0]
    free_at = [0] * num_pes
    placements: Dict[int, PlacedOp] = {}

    while ready:
        ready.sort(key=lambda i: (-prio[i], i))
        op_id = ready.pop(0)
        op = graph.operation(op_id)
        earliest = data_ready[op_id]
        stall = (extra_occupancy or {}).get(op_id, 0)
        best = None
        for pe in range(num_pes):
            duration = array.effective_time(op.execution_time, pe) + stall
            start = max(free_at[pe], earliest)
            finish = start + duration
            if best is None or finish < best[0]:
                best = (finish, pe, start)
        finish, pe, start = best
        free_at[pe] = finish
        placements[op_id] = PlacedOp(op_id, pe, start, finish)
        for edge in graph.out_edges(op_id):
            succ = edge.consumer
            data_ready[succ] = max(data_ready[succ], finish + latency(edge))
            remaining_preds[succ] -= 1
            if remaining_preds[succ] == 0:
                ready.append(succ)

    if len(placements) != graph.num_vertices:
        raise ScheduleError("list scheduler stalled; the graph contains a cycle")
    period = max((p.finish for p in placements.values()), default=0)
    return KernelSchedule(period=period, placements=placements)


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


def effective_parallel_width(
    graph: TaskGraph, max_pes: int, edge_latency: Optional[EdgeLatency] = None
) -> int:
    """Smallest PE count at which the list-schedule makespan stops improving.

    A baseline that maps one iteration onto the whole array wastes PEs once
    the graph's parallelism saturates; this probe finds the useful width so
    the baseline can instead replicate iterations across PE groups (as in
    the motivational example, where two iterations run concurrently on two
    PE pairs).
    """
    if max_pes < 1:
        raise ScheduleError("max_pes must be >= 1")
    best_len = None
    best_width = 1
    width = 1
    while width <= max_pes:
        length = list_schedule(graph, width, edge_latency).period
        if best_len is None or length < best_len:
            best_len = length
            best_width = width
        width *= 2
    return best_width
