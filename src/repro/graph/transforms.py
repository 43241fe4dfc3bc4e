"""Task-graph fusion rewrites.

:func:`fuse_stages` contracts the runs of stages a caller names into
single dataflow stages; :func:`coarsen_chains` fuses every maximal linear
chain into one operation. Both drop ``period_hint`` when anything fused.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, Optional, Sequence, Tuple

from repro.graph.taskgraph import (
    GraphValidationError,
    IntermediateResult,
    TaskGraph,
)


def fuse_stages(
    graph: TaskGraph,
    runs: Sequence[Sequence[int]],
    name: Optional[str] = None,
) -> TaskGraph:
    """Contract explicit runs of stages into single fused vertices.

    The PIMfused observation: lowering a run of adjacent stages into one
    dataflow stage makes the run's *internal* intermediate results
    cache-resident by construction (they never hit the allocator), while
    the run's *boundary* IRs keep their eDRAM-vs-cache choice — a
    genuinely different ΔR profile. Where :func:`coarsen_chains` fuses
    every maximal linear chain it can find, this transform fuses exactly
    the ``runs`` the caller names, which is what a fusion *policy* needs.

    Each run must be a path ``m_0 -> m_1 -> ... -> m_k`` (consecutive
    edges present) whose non-last members have **no consumer outside the
    run** — an escaping internal IR would still need placement, so such a
    run is rejected rather than silently mis-fused. Runs must be pairwise
    disjoint. External edges into/out of a run are retargeted to the
    fused vertex; parallel boundary edges that collapse onto the same
    fused pair merge by *summing* sizes and profits (total boundary
    traffic and profit mass are conserved).

    Conservation invariants (property-tested): the fused vertex carries
    the run's summed ``execution_time``, summed ``work`` and summed
    ``fused_count``, so graph-total compute is preserved exactly.
    """
    member_of: Dict[int, Tuple[int, int]] = {}  # op_id -> (run_idx, pos)
    for run_idx, run in enumerate(runs):
        members = [int(m) for m in run]
        if len(members) < 2:
            raise GraphValidationError(
                f"fusion run {run_idx} needs >= 2 members, got {members}"
            )
        if len(set(members)) != len(members):
            raise GraphValidationError(
                f"fusion run {run_idx} repeats members: {members}"
            )
        for pos, member in enumerate(members):
            if member not in graph:
                raise GraphValidationError(
                    f"fusion run {run_idx} names unknown op {member}"
                )
            if member in member_of:
                raise GraphValidationError(
                    f"op {member} appears in more than one fusion run"
                )
            member_of[member] = (run_idx, pos)
        for earlier, later in zip(members, members[1:]):
            if not graph.has_edge(earlier, later):
                raise GraphValidationError(
                    f"fusion run {run_idx} is not a path: no edge "
                    f"({earlier}, {later})"
                )
        run_set = set(members)
        for member in members[:-1]:
            escapes = [s for s in graph.successors(member) if s not in run_set]
            if escapes:
                raise GraphValidationError(
                    f"op {member} in fusion run {run_idx} has consumers "
                    f"{sorted(escapes)} outside the run; its intermediate "
                    "result would escape the fused stage"
                )

    reps: Dict[int, int] = {}  # op_id -> representative op_id
    for run in runs:
        members = [int(m) for m in run]
        for member in members:
            reps[member] = members[0]

    # A fused vertex carries the run's *summed* execution time, so a
    # period that was feasible for the original granularity can be
    # infeasible after fusion (p >= max c_i no longer holds). There is no
    # principled rescale, so a fusing rewrite drops the hint and lets the
    # schedulers recompute the period; a no-op call keeps it.
    out = TaskGraph(
        name=name or f"{graph.name}-fused",
        period_hint=graph.period_hint if not runs else None,
    )
    for op in graph.operations():
        if op.op_id not in reps:
            out.add_operation(op)
            continue
        if reps[op.op_id] != op.op_id:
            continue  # non-head member, folded into its head below
        run_idx, _ = member_of[op.op_id]
        members = [int(m) for m in runs[run_idx]]
        member_ops = [graph.operation(m) for m in members]
        out.add_operation(
            replace(
                op,
                name="+".join(m.name for m in member_ops),
                execution_time=sum(m.execution_time for m in member_ops),
                work=sum(m.work for m in member_ops),
                fused_count=sum(m.fused_count for m in member_ops),
            )
        )

    merged: Dict[Tuple[int, int], IntermediateResult] = {}
    for edge in graph.edges():
        producer = reps.get(edge.producer, edge.producer)
        consumer = reps.get(edge.consumer, edge.consumer)
        if producer == consumer:
            continue  # internal IR: cache-resident by construction
        key = (producer, consumer)
        existing = merged.get(key)
        if existing is None:
            merged[key] = replace(edge, producer=producer, consumer=consumer)
        else:
            merged[key] = replace(
                existing,
                size_bytes=existing.size_bytes + edge.size_bytes,
                profit_cache=existing.profit_cache + edge.profit_cache,
                profit_edram=existing.profit_edram + edge.profit_edram,
            )
    for key in sorted(merged):
        out.add_edge(merged[key])
    out.validate()
    return out


def coarsen_chains(graph: TaskGraph, name: Optional[str] = None) -> TaskGraph:
    """Fuse maximal linear chains into single operations.

    A vertex with exactly one predecessor and one successor, whose
    predecessor has exactly one successor, merges into it: execution times
    add, the incoming edge survives with the chain-head's identity. This
    models operator fusion and reduces scheduling granularity.
    """
    order = graph.topological_order()
    # head[v]: representative (chain head) for v
    head: Dict[int, int] = {}
    extra_time: Dict[int, int] = {op_id: 0 for op_id in order}
    for op_id in order:
        preds = graph.predecessors(op_id)
        if (
            len(preds) == 1
            and graph.out_degree(preds[0]) == 1
            and graph.in_degree(op_id) == 1
        ):
            rep = head.get(preds[0], preds[0])
            head[op_id] = rep
            extra_time[rep] += graph.operation(op_id).execution_time
        else:
            head[op_id] = op_id

    # Same stale-metadata hazard as fuse_stages: chain fusion sums
    # execution times, so the hint only survives a no-op coarsening.
    coarsened = any(head[op_id] != op_id for op_id in order)
    out = TaskGraph(name=name or f"{graph.name}-coarse",
                    period_hint=None if coarsened else graph.period_hint)
    for op in graph.operations():
        if head[op.op_id] == op.op_id:
            out.add_operation(
                replace(
                    op,
                    execution_time=op.execution_time + extra_time[op.op_id],
                )
            )
    for edge in graph.edges():
        producer = head[edge.producer]
        consumer = head[edge.consumer]
        if producer == consumer:
            continue  # edge internal to a fused chain
        if not out.has_edge(producer, consumer):
            out.add_edge(
                replace(edge, producer=producer, consumer=consumer)
            )
    out.validate()
    return out
