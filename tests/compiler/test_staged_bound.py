"""Soundness of the width search's second bound, the kernel-stage floor,
and of the width-invariant tables both bounds read.

After ``compact-kernel``, and before any edge analysis, ``ParaConv.run``
skips the plan stage of a width whose floor ``(R_floor + ceil(N/J)) * p``
cannot beat the incumbent. That is only sound if the floor is at most the
total time of every plan the plan stage can build at that width, whatever
the allocator and pipeline knobs, and then the pruned search must return
the exhaustive search's plan. The floor and the first bound's critical
path are computed from one index-based edge table per graph, and every
width packs from one shared packing order; each is held here to a plain
reference computation.
"""

from __future__ import annotations

import functools
import math
from typing import Dict, Union

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cnn.workloads import PAPER_BENCHMARKS, load_workload
from repro.compiler import (
    CompactKernelPass,
    CompileContext,
    kernel_stage_floor,
    transfer_critical_path,
)
from repro.core.paraconv import ParaConv
from repro.core.retiming import (
    EdgePrice,
    RetimingError,
    analyze_edges,
    edge_table,
    price_edges,
    solve_retiming,
)
from repro.core.schedule import KernelSchedule, PlacedOp, ScheduleError
from repro.core.scheduler import (
    KERNEL_ORDERS,
    candidate_group_widths,
    compact_kernel_schedule,
    load_balance_bound,
)
from repro.graph.randwired import RANDWIRED_KINDS, RandwiredSpec, randwired_graph
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import plan_to_dict

SOURCES = st.one_of(
    st.sampled_from(PAPER_BENCHMARKS),
    st.builds(
        RandwiredSpec,
        kind=st.sampled_from(RANDWIRED_KINDS),
        num_vertices=st.integers(min_value=5, max_value=24),
        seed=st.integers(min_value=0, max_value=2**16),
    ),
)
NUM_PES = st.sampled_from((1, 4, 16, 64))
ITERATIONS = st.sampled_from((1, 7, 1000))
ALLOCATORS = st.sampled_from(("dp", "greedy", "iterative"))
KERNEL_ORDER = st.sampled_from(KERNEL_ORDERS)
#: Every workload's results are under 8192 bytes, so on the default
#: machine every edge is below one cache unit; finer units give the
#: clamp to the period something to clamp.
CACHE_BYTES_PER_UNIT = st.sampled_from((8192, 1024, 128))


@functools.lru_cache(maxsize=None)
def _paper_graph(name: str) -> TaskGraph:
    return load_workload(name)


def _graph(source: Union[str, RandwiredSpec]) -> TaskGraph:
    if isinstance(source, str):
        return _paper_graph(source)
    return randwired_graph(source)


def _pipeline(
    num_pes: int,
    iterations: int,
    allocator: str,
    liveness_aware: bool,
    kernel_order: str,
    prune_widths: bool = True,
) -> ParaConv:
    return ParaConv(
        PimConfig(num_pes=num_pes, iterations=iterations),
        allocator_name=allocator,
        liveness_aware=liveness_aware,
        kernel_order=kernel_order,
        prune_widths=prune_widths,
    )


@settings(max_examples=60, deadline=None)
@given(
    source=SOURCES,
    num_pes=NUM_PES,
    iterations=ITERATIONS,
    allocator=ALLOCATORS,
    liveness_aware=st.booleans(),
    kernel_order=KERNEL_ORDER,
)
def test_floor_never_exceeds_the_plan_at_its_width(
    source, num_pes, iterations, allocator, liveness_aware, kernel_order
):
    graph = _graph(source)
    pipeline = _pipeline(
        num_pes, iterations, allocator, liveness_aware, kernel_order
    )
    for width in candidate_group_widths(num_pes):
        floor = kernel_stage_floor(
            pipeline.analysis_context(graph, width), iterations
        )
        plan = pipeline.run_at_width(graph, width)
        assert floor <= plan.total_time(), (width, floor, plan.total_time())


@settings(max_examples=60, deadline=None)
@given(
    source=SOURCES,
    num_pes=NUM_PES,
    iterations=ITERATIONS,
    allocator=ALLOCATORS,
    liveness_aware=st.booleans(),
    kernel_order=KERNEL_ORDER,
)
# The latency regime: N=1 on the widest array, where the transfer term
# of the width bound prunes all but one candidate.
@example(
    source="lenet5", num_pes=64, iterations=1, allocator="dp",
    liveness_aware=False, kernel_order="topological",
)
def test_pruned_search_returns_the_exhaustive_plan(
    source, num_pes, iterations, allocator, liveness_aware, kernel_order
):
    graph = _graph(source)
    knobs = (num_pes, iterations, allocator, liveness_aware, kernel_order)
    pruned = _pipeline(*knobs).run(graph)
    exhaustive = _pipeline(*knobs, prune_widths=False).run(graph)
    assert plan_to_dict(pruned) == plan_to_dict(exhaustive)
    stats = pruned.compile_stats
    assert set(stats.widths_cut_after_kernel) <= set(stats.widths_pruned)
    assert sorted(stats.widths_explored + stats.widths_pruned) == sorted(
        exhaustive.compile_stats.widths_explored
    ) == sorted(candidate_group_widths(num_pes))
    assert exhaustive.compile_stats.num_pruned == 0


def _machine(num_pes: int, iterations: int, bytes_per_unit: int) -> PimConfig:
    return PimConfig(
        num_pes=num_pes,
        iterations=iterations,
        cache_bytes_per_unit=bytes_per_unit,
    )


@settings(max_examples=40, deadline=None)
@given(
    source=SOURCES,
    num_pes=NUM_PES,
    iterations=ITERATIONS,
    kernel_order=KERNEL_ORDER,
    bytes_per_unit=CACHE_BYTES_PER_UNIT,
)
def test_floor_is_the_all_cache_retiming(
    source, num_pes, iterations, kernel_order, bytes_per_unit
):
    """(a) The floor is ``(R_max + ceil(N/J)) * p`` of the minimal
    retiming with every edge at the cache delta ``analyze_edges``
    derives."""
    graph = _graph(source)
    config = _machine(num_pes, iterations, bytes_per_unit)
    pipeline = ParaConv(config, kernel_order=kernel_order)
    for width in candidate_group_widths(num_pes):
        ctx = pipeline.analysis_context(graph, width)
        timings = ctx.get("timings")
        all_cache = {key: timing.delta_cache for key, timing in timings.items()}
        r_max = solve_retiming(graph, all_cache).max_retiming
        rounds = math.ceil(iterations / ctx.num_groups)
        expected = (r_max + rounds) * ctx.get("kernel").period
        assert kernel_stage_floor(ctx, iterations) == expected, width


def _reference_critical_path(
    graph: TaskGraph, config: PimConfig, period_floor: int
) -> int:
    """Longest path, vertex weight ``c_v``, edge weight
    ``min(period_floor, cache_transfer)``, by memoized recursion over
    predecessors."""
    memo: Dict[int, int] = {}

    def finish(op_id: int) -> int:
        if op_id not in memo:
            memo[op_id] = graph.operation(op_id).execution_time + max(
                (
                    finish(producer)
                    + min(
                        period_floor,
                        config.cache_transfer_units(
                            graph.edge(producer, op_id).size_bytes
                        ),
                    )
                    for producer in graph.predecessors(op_id)
                ),
                default=0,
            )
        return memo[op_id]

    for op_id in graph.topological_order():  # fill bottom-up, no deep stack
        finish(op_id)
    return max(memo.values(), default=0)


@settings(max_examples=40, deadline=None)
@given(
    source=SOURCES,
    num_pes=NUM_PES,
    bytes_per_unit=CACHE_BYTES_PER_UNIT,
)
def test_table_critical_path_matches_a_longest_path_reference(
    source, num_pes, bytes_per_unit
):
    """(b) For every period floor the search can ask for — each width's
    load-balance bound — and every floor up to one past the largest cache
    cost, the edge-table DP is the plain longest path."""
    graph = _graph(source)
    config = _machine(num_pes, 1, bytes_per_unit)
    table = edge_table(graph, price_edges(graph, config))
    floors = set(range(table.max_cache_units + 2)) | {
        load_balance_bound(graph, width)
        for width in candidate_group_widths(num_pes)
    }
    for floor in sorted(floors):
        expected = _reference_critical_path(graph, config, floor)
        assert transfer_critical_path(graph, config, floor, table=table) == (
            expected
        ), floor
        assert transfer_critical_path(graph, config, floor) == expected


@settings(max_examples=40, deadline=None)
@given(source=SOURCES, num_pes=NUM_PES)
def test_shared_packing_order_packs_the_unshared_kernel(source, num_pes):
    """(c) Packing every width from the context's shared order gives the
    kernel a standalone ``compact_kernel_schedule`` call builds, for both
    packing orders, placement insertion order included."""
    graph = _graph(source)
    base = CompileContext(graph=graph, config=PimConfig(num_pes=num_pes))
    for order in KERNEL_ORDERS:
        for width in candidate_group_widths(num_pes):
            ctx = base.fork_for_width(width)
            CompactKernelPass(order=order).run(ctx)
            shared = ctx.get("kernel")
            unshared = compact_kernel_schedule(graph, width, order=order)
            assert shared.period == unshared.period
            assert list(shared.placements.items()) == list(
                unshared.placements.items()
            )
        assert f"packing_order:{order}" in base.shared


def _mixed_chain() -> TaskGraph:
    """0 -> 1 -> 2 and 0 -> 2: one result below a cache unit, two above."""
    graph = TaskGraph(name="mixed")
    for op_id, execution_time in enumerate((2, 3, 1)):
        graph.add_op(op_id, execution_time=execution_time)
    graph.connect(0, 1, size_bytes=100)       # 0 cache units
    graph.connect(1, 2, size_bytes=3 * 8192)  # 3 cache units
    graph.connect(0, 2, size_bytes=9 * 8192)  # 9 cache units
    return graph


def test_sub_unit_edge_in_both_bounds():
    """(d) A result below one cache unit costs nothing on the critical
    path and needs no retiming, next to results that cost more."""
    graph = _mixed_chain()
    config = PimConfig(num_pes=2, iterations=10)
    table = edge_table(graph, price_edges(graph, config))
    assert sorted(row[2] for row in table.rows) == [0, 3, 9]
    assert table.max_cache_units == 9
    for floor in range(11):
        assert transfer_critical_path(
            graph, config, floor, table=table
        ) == _reference_critical_path(graph, config, floor)
    # Floor 1: chain 2 + 0 + 3 + 1 + 1 = 7 beats the shortcut 2 + 1 + 1.
    assert transfer_critical_path(graph, config, 1, table=table) == 7
    pipeline = ParaConv(config)
    for width in candidate_group_widths(config.num_pes):
        ctx = pipeline.analysis_context(graph, width)
        timings = ctx.get("timings")
        assert timings[(0, 1)].transfer_cache == 0
        all_cache = {key: t.delta_cache for key, t in timings.items()}
        rounds = math.ceil(config.iterations / ctx.num_groups)
        assert kernel_stage_floor(ctx, config.iterations) == (
            solve_retiming(graph, all_cache).max_retiming + rounds
        ) * ctx.get("kernel").period


def test_price_edges_agrees_with_the_config_methods():
    config = PimConfig(cache_bytes_per_unit=1000, cache_slot_bytes=300)
    graph = TaskGraph()
    sizes = (1, 299, 300, 301, 999, 1000, 1001, 123_457)
    for op_id in range(len(sizes) + 1):
        graph.add_op(op_id)
    for op_id, size in enumerate(sizes):
        graph.connect(op_id, op_id + 1, size_bytes=size)
    for price, size in zip(price_edges(graph, config), sizes):
        assert price == (
            (price.producer, price.consumer),
            price.producer,
            price.consumer,
            config.cache_transfer_units(size),
            config.edram_transfer_units(size),
            config.slots_required(size),
        )


def _context_with_kernel(
    graph: TaskGraph, config: PimConfig, kernel: KernelSchedule
) -> CompileContext:
    ctx = CompileContext(graph=graph, config=config, width=config.num_pes)
    ctx.put("kernel", kernel)
    return ctx


def _raised(call) -> Exception:
    with pytest.raises((RetimingError, ScheduleError)) as info:
        call()
    return info.value


class TestFloorKeepsTheEdgeChecks:
    """A width the floor cuts never runs ``analyze_edges``, so the floor
    raises what ``analyze_edges`` would on the same kernel."""

    def test_theorem_bound(self):
        graph = _mixed_chain()
        config = PimConfig(num_pes=2)
        # Op 0 finishes past the period: the 0 -> 1 gap breaks Thm 3.1.
        kernel = KernelSchedule(
            period=2,
            placements={
                0: PlacedOp(0, 0, 0, 5),
                1: PlacedOp(1, 1, 0, 1),
                2: PlacedOp(2, 1, 1, 2),
            },
        )
        ctx = _context_with_kernel(graph, config, kernel)
        floor_error = _raised(lambda: kernel_stage_floor(ctx, 10))
        edge_error = _raised(lambda: analyze_edges(graph, kernel, config))
        assert type(floor_error) is type(edge_error) is RetimingError
        assert "Theorem 3.1" in str(floor_error)
        assert str(floor_error) == str(edge_error)

    def test_inverted_hierarchy(self):
        graph = _mixed_chain()
        config = PimConfig(num_pes=2)
        kernel = compact_kernel_schedule(graph, 2)
        inverted = tuple(
            EdgePrice(p.key, p.producer, p.consumer, 2, 1, p.slots)
            if p.key == (1, 2) else p
            for p in price_edges(graph, config)
        )
        ctx = _context_with_kernel(graph, config, kernel)
        ctx.shared["edge_prices"] = inverted
        floor_error = _raised(lambda: kernel_stage_floor(ctx, 10))
        edge_error = _raised(
            lambda: analyze_edges(graph, kernel, config, prices=inverted)
        )
        assert "inverts the memory hierarchy" in str(floor_error)
        assert str(floor_error) == str(edge_error)

    def test_op_missing_from_kernel(self):
        graph = _mixed_chain()
        config = PimConfig(num_pes=2)
        kernel = compact_kernel_schedule(graph, 2)
        del kernel.placements[1]
        ctx = _context_with_kernel(graph, config, kernel)
        floor_error = _raised(lambda: kernel_stage_floor(ctx, 10))
        edge_error = _raised(lambda: analyze_edges(graph, kernel, config))
        assert type(floor_error) is type(edge_error) is ScheduleError
        assert str(floor_error) == str(edge_error)
