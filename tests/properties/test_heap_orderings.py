"""Heap-based orderings equal the scan-based ones they replaced.

:func:`~repro.core.scheduler.compact_kernel_schedule` picks the next PE
from a ``(free_at, pe)`` heap, and :meth:`TaskGraph.topological_order`
runs Kahn's algorithm over a heap of ready ids. Both must give exactly
the order of the earlier implementations, which are copied below as the
references: a ``min`` scan over every PE, and a sorted ready list that
is re-sorted after each insertion. The graphs drawn here have many equal
execution times and scattered op ids, so ties are common and are broken
by PE index or op id alone.
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import PlacedOp, ScheduleError
from repro.core.scheduler import compact_kernel_schedule
from repro.graph.taskgraph import GraphValidationError, TaskGraph, _describe_cycle


# ----------------------------------------------------------------------
# references: the scan-based implementations, verbatim
# ----------------------------------------------------------------------
def reference_compact_kernel_schedule(
    graph: TaskGraph,
    num_pes: int,
    order: str = "topological",
    levels: Optional[Dict[int, int]] = None,
) -> Tuple[int, Dict[int, PlacedOp]]:
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
        raise ScheduleError(f"unknown packing order {order!r}")
    free_at = [0] * num_pes
    placements: Dict[int, PlacedOp] = {}
    for op in ordered:
        pe = min(range(num_pes), key=lambda k: (free_at[k], k))
        start = free_at[pe]
        finish = start + op.execution_time
        free_at[pe] = finish
        placements[op.op_id] = PlacedOp(op.op_id, pe, start, finish)
    period = max(free_at) if placements else 0
    return period, placements


def reference_topological_order(self: TaskGraph) -> List[int]:
    indeg = {i: len(self._pred[i]) for i in self._ops}
    ready = sorted(i for i, d in indeg.items() if d == 0)
    order: List[int] = []
    while ready:
        node = ready.pop(0)
        order.append(node)
        inserted = False
        for succ in self._succ[node]:
            indeg[succ] -= 1
            if indeg[succ] == 0:
                ready.append(succ)
                inserted = True
        if inserted:
            ready.sort()
    if len(order) != len(self._ops):
        remaining = {i for i in self._ops if i not in set(order)}
        cycle = self._find_cycle(remaining)
        raise GraphValidationError(
            f"graph '{self.name}' contains a cycle; a CNN dataflow must be "
            f"a DAG (cycle: {_describe_cycle(cycle)})"
        )
    return order


# ----------------------------------------------------------------------
# graphs full of ties
# ----------------------------------------------------------------------
def tie_heavy_graph(
    n: int, density: float, times: List[int], seed: int
) -> TaskGraph:
    """A DAG whose ids, insertion order and dependency order all differ."""
    rng = random.Random(seed)
    ids = rng.sample(range(4 * n), n)
    rank = list(ids)
    rng.shuffle(rank)  # dependency order: edges go from lower to higher rank
    graph = TaskGraph(name=f"ties-{seed}")
    for op_id in ids:
        graph.add_op(op_id, execution_time=rng.choice(times))
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < density:
                graph.connect(rank[a], rank[b])
    return graph


graphs = st.builds(
    tie_heavy_graph,
    n=st.integers(min_value=1, max_value=40),
    density=st.sampled_from([0.0, 0.05, 0.15, 0.4]),
    times=st.sampled_from([[1], [2], [1, 2], [1, 1, 1, 3], [1, 2, 3, 4]]),
    seed=st.integers(min_value=0, max_value=10_000),
)


class TestAgainstReferences:
    @settings(max_examples=60, deadline=None)
    @given(graph=graphs, max_pes=st.integers(min_value=1, max_value=20))
    def test_kernel_packing_matches_min_scan(self, graph, max_pes):
        for order in ("topological", "lpt"):
            for width in range(1, max_pes + 1):
                heap = compact_kernel_schedule(graph, width, order=order)
                period, scan = reference_compact_kernel_schedule(
                    graph, width, order=order
                )
                assert heap.period == period
                assert [heap.placement(op_id) for op_id in scan] == list(
                    scan.values()
                )

    @settings(max_examples=80, deadline=None)
    @given(graph=graphs)
    def test_topological_order_matches_sorted_list_kahn(self, graph):
        assert graph.topological_order() == reference_topological_order(graph)


# ----------------------------------------------------------------------
# the cached topological order
# ----------------------------------------------------------------------
def chain(*ids: int) -> TaskGraph:
    graph = TaskGraph(name="chain")
    for op_id in ids:
        graph.add_op(op_id)
    for producer, consumer in zip(ids, ids[1:]):
        graph.connect(producer, consumer)
    return graph


class TestOrderCache:
    def test_add_operation_after_a_call_changes_the_order(self):
        graph = chain(5, 7)
        assert graph.topological_order() == [5, 7]
        graph.add_op(1)
        assert graph.topological_order() == [1, 5, 7]

    def test_add_edge_after_a_call_changes_the_order(self):
        graph = chain(5, 7)
        graph.add_op(1)
        assert graph.topological_order() == [1, 5, 7]
        graph.connect(7, 1)
        assert graph.topological_order() == [5, 7, 1]

    def test_mutating_the_returned_list_leaves_the_cache_intact(self):
        graph = chain(3, 1, 2)
        order = graph.topological_order()
        order.reverse()
        order.append(99)
        assert graph.topological_order() == [3, 1, 2]

    def test_a_cycle_raises_on_every_call(self):
        graph = chain(0, 1, 2)
        graph.connect(2, 0)
        for _ in range(3):
            with pytest.raises(GraphValidationError, match="cycle"):
                graph.topological_order()
        assert not graph.is_acyclic()

    def test_an_edge_closing_a_cycle_invalidates_a_cached_order(self):
        graph = chain(0, 1, 2)
        assert graph.topological_order() == [0, 1, 2]
        graph.connect(2, 0)
        with pytest.raises(GraphValidationError, match="cycle"):
            graph.topological_order()
