"""Graph builders and the uncached reference batch shared by test
modules and fixtures."""

from __future__ import annotations

from typing import Sequence

from repro.graph.taskgraph import TaskGraph


def linear_chain(
    lengths: Sequence[int], name: str = "chain", size_bytes: int = 1
) -> TaskGraph:
    """Build a simple pipeline graph ``T_0 -> T_1 -> ... -> T_{n-1}``.

    ``lengths[k]`` is the execution time of the k-th stage.
    """
    graph = TaskGraph(name=name)
    for idx, length in enumerate(lengths):
        graph.add_op(idx, execution_time=length)
    for idx in range(len(lengths) - 1):
        graph.connect(idx, idx + 1, size_bytes=size_bytes)
    graph.validate()
    return graph


def kernel_of(graph, period, placements):
    """A kernel over ``graph``'s index from ``{op_id: (pe, start, finish)}``
    (``graph=None`` lays it out in the dict's order instead)."""
    from repro.core.schedule import KernelSchedule

    op_ids = tuple(placements) if graph is None else graph.index().op_ids
    rows = [placements[op_id] for op_id in op_ids]
    return KernelSchedule(
        period,
        op_ids,
        [row[0] for row in rows],
        [row[1] for row in rows],
        [row[2] for row in rows],
    )


def set_row(kernel, op_id, pe, start, finish):
    """Overwrite ``op_id``'s row of ``kernel``'s columns."""
    v = list(kernel.op_ids).index(op_id)
    kernel.pe[v], kernel.start[v], kernel.finish[v] = pe, start, finish


def drop_row(kernel, op_id):
    """Remove ``op_id``'s row from ``kernel``'s columns."""
    v = list(kernel.op_ids).index(op_id)
    kernel.op_ids = tuple(o for o in kernel.op_ids if o != op_id)
    for column in (kernel.pe, kernel.start, kernel.finish):
        del column[v]


def schedule_of(graph, kernel, retiming, edge_retiming, placements, transfer_times):
    """A periodic schedule from dicts keyed by op id and edge key; a key
    a dict lacks leaves its entry missing (``None``)."""
    from repro.core.schedule import PeriodicSchedule

    index = graph.index()
    return PeriodicSchedule(
        graph,
        kernel,
        [retiming.get(op_id) for op_id in index.op_ids],
        [edge_retiming.get(key) for key in index.edge_keys],
        [placements.get(key) for key in index.edge_keys],
        [transfer_times.get(key) for key in index.edge_keys],
    )


def timings_table(timings):
    """An :class:`EdgeTimings` table of the given :class:`EdgeTiming` rows."""
    from repro.core.retiming import EdgeTimings

    rows = list(timings)
    keys = tuple(t.key for t in rows)
    return EdgeTimings(
        keys,
        *(
            tuple(getattr(t, name) for t in rows)
            for name in (
                "transfer_cache", "transfer_edram", "delta_cache",
                "delta_edram", "slots", "deadline",
            )
        ),
        {key: row for row, key in enumerate(keys)},
    )


def row_deltas(graph, deltas):
    """``{edge key: delta}`` as one delta per edge row of ``graph``."""
    return [deltas[key] for key in graph.index().edge_keys]


def direct_batch(graph, config, iterations, allocator="dp", sim_mode="full"):
    """The uncached reference path: plan, execute, report.

    The session tests compare a served batch against this from-scratch
    run with identical semantics. It defaults to the full-unroll mode
    because it is the reference: comparing a steady-state session batch
    against a full-unroll direct batch exercises the fast-forward
    equivalence end to end.
    """
    import time

    from repro.core.paraconv import ParaConv
    from repro.runtime.session import InferenceSession
    from repro.sim.executor import ScheduleExecutor
    from repro.sim.modes import SimMode
    from repro.sim.sinks import NullSink

    result = ParaConv(config, allocator_name=allocator).run(graph)
    started = time.perf_counter()
    trace = ScheduleExecutor(config, mode=SimMode.from_name(sim_mode)).execute(
        result, iterations=iterations, sink=NullSink()
    )
    wall = time.perf_counter() - started
    return InferenceSession._batch_result(trace, None, wall)
