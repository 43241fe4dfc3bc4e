"""Soundness of the width search's second bound, the kernel-stage floor.

After ``compact-kernel`` and ``analyze-edges``, ``ParaConv.run`` skips the
plan stage of a width whose floor ``(R_floor + ceil(N/J)) * p`` cannot
beat the incumbent. That is only sound if the floor is at most the total
time of every plan the plan stage can build at that width, whatever the
allocator and pipeline knobs, and then the pruned search must return the
exhaustive search's plan.
"""

from __future__ import annotations

import functools
from typing import Union

from hypothesis import example, given, settings, strategies as st

from repro.cnn.workloads import PAPER_BENCHMARKS, load_workload
from repro.compiler import kernel_stage_floor
from repro.core.paraconv import ParaConv
from repro.core.scheduler import KERNEL_ORDERS, candidate_group_widths
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
ALLOCATORS = st.sampled_from(("dp", "anneal:50"))
KERNEL_ORDER = st.sampled_from(KERNEL_ORDERS)


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
