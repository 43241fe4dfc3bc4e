"""Seeded property suite for retiming and allocation.

Hundreds of parametrized cases (deterministic seeds, no shared state)
checking the two algorithmic cores of the paper on randomly generated
instances:

* ``solve_retiming`` always returns a *legal* (Definition 3.1) and
  *pointwise-minimal* retiming for arbitrary non-negative per-edge
  requirements on arbitrary generated DAGs;
* every capacity-aware allocator returns a capacity-feasible,
  internally consistent result on arbitrary knapsack instances, and the
  DP exactly matches the brute-force optimum on small ones;
* the full pipeline's plans pass the invariant validator end to end.

Unlike the hypothesis suite in ``tests/properties``, every case here is a
fixed ``pytest.mark.parametrize`` seed: failures name the exact instance
and reproduce without a shrinker.
"""

from __future__ import annotations

import random
from typing import List, Tuple

import pytest

from repro.core.allocation import (
    ALLOCATORS,
    AllocationItem,
    AllocationProblem,
    dp_allocate,
)
from repro.core.paraconv import ParaConv
from repro.core.retiming import RetimingError, solve_retiming
from repro.graph.generators import SyntheticGraphGenerator
from repro.pim.config import PimConfig
from repro.verify.oracle import exhaustive_allocate
from repro.verify.validator import ScheduleValidator

from tests.builders import row_deltas
from tests.core.retired import RETIRED_ALLOCATORS, allocator_for

# ----------------------------------------------------------------------
# instance generators (all deterministic in the seed)
# ----------------------------------------------------------------------
def graph_spec(seed: int) -> Tuple[int, int, int]:
    """(num_vertices, num_edges, seed) for one generated DAG."""
    rng = random.Random(0xD1CE ^ seed)
    n = rng.randint(5, 33)
    extra = rng.randint(0, n - 1)
    return n, n - 1 + extra, seed


def make_graph(seed: int):
    n, edges, _ = graph_spec(seed)
    return SyntheticGraphGenerator().generate(
        n, edges, seed=seed, name=f"prop-{seed}"
    )


def make_problem(seed: int, max_items: int = 24) -> AllocationProblem:
    """Random deadline-sorted knapsack instance."""
    rng = random.Random(0xA110C ^ seed)
    count = rng.randint(1, max_items)
    items: List[AllocationItem] = []
    for index in range(count):
        items.append(
            AllocationItem(
                key=(index, index + 1),
                slots=rng.randint(1, 8),
                delta_r=rng.randint(1, 12),
                deadline=rng.randint(0, 50),
            )
        )
    items.sort(key=lambda item: (item.deadline, item.key))
    demand = sum(item.slots for item in items)
    capacity = rng.randint(0, demand + 4)
    return AllocationProblem(items=items, capacity_slots=capacity)


RETIMING_SEEDS = range(60)
ALLOCATION_SEEDS = range(60)
ORACLE_SEEDS = range(48)
PIPELINE_SEEDS = range(12)
CAPACITY_AWARE = sorted(
    set(ALLOCATORS) - {"oracle", "iterative"} | set(RETIRED_ALLOCATORS)
)


# ----------------------------------------------------------------------
# retiming properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", RETIMING_SEEDS)
def test_solve_retiming_legal_and_minimal(seed):
    """Definition 3.1 legality + pointwise minimality on random DAGs."""
    graph = make_graph(seed)
    rng = random.Random(seed)
    deltas = {edge.key: rng.randint(0, 3) for edge in graph.edges()}
    solution = solve_retiming(graph, row_deltas(graph, deltas))

    assert solution.is_legal()
    for (i, j), r_ij in solution.edge_retiming.items():
        assert (
            solution.vertex_retiming[i] >= r_ij >= solution.vertex_retiming[j]
        )
        # The solver picks R(i,j) = R(j) + delta(i,j) exactly.
        assert r_ij == solution.vertex_retiming[j] + deltas[(i, j)]
    # Pointwise minimality: R(i) is the smallest legal value given its
    # out-edges — any smaller value breaks R(i) >= R(j) + delta(i,j).
    for op_id in graph.topological_order():
        required = max(
            (
                solution.vertex_retiming[edge.consumer] + deltas[edge.key]
                for edge in graph.out_edges(op_id)
            ),
            default=0,
        )
        assert solution.vertex_retiming[op_id] == required


@pytest.mark.parametrize("seed", [0, 7, 21])
def test_negative_delta_rejected(seed):
    graph = make_graph(seed)
    deltas = {edge.key: 0 for edge in graph.edges()}
    first = next(iter(deltas))
    deltas[first] = -1
    with pytest.raises(RetimingError):
        solve_retiming(graph, row_deltas(graph, deltas))


# ----------------------------------------------------------------------
# allocator properties
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", ALLOCATION_SEEDS)
@pytest.mark.parametrize("method", CAPACITY_AWARE)
def test_allocator_capacity_feasible_and_consistent(method, seed):
    """Every capacity-aware allocator: feasible + self-consistent."""
    problem = make_problem(seed)
    result = allocator_for(method)(problem)
    by_key = {item.key: item for item in problem.items}

    assert result.slots_used <= problem.capacity_slots
    assert set(result.cached) <= set(by_key)
    assert result.slots_used == sum(by_key[k].slots for k in result.cached)
    assert result.total_delta_r == sum(
        by_key[k].delta_r for k in result.cached
    )
    # The placement map covers every item exactly once.
    assert set(result.placements) == set(by_key) | set(problem.indifferent)


@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_dp_matches_exhaustive_optimum(seed):
    """The Section 3.3 DP is profit-optimal on every small instance."""
    problem = make_problem(seed, max_items=10)
    dp = dp_allocate(problem)
    best = exhaustive_allocate(problem)
    assert dp.total_delta_r == best.total_delta_r, (
        f"seed {seed}: dp {dp.total_delta_r} != optimum "
        f"{best.total_delta_r} (n={problem.num_items}, "
        f"S={problem.capacity_slots})"
    )


# ----------------------------------------------------------------------
# end-to-end pipeline property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", PIPELINE_SEEDS)
def test_pipeline_plan_passes_validator(seed):
    """Full compile of a random graph yields an invariant-clean plan."""
    graph = make_graph(seed)
    config = PimConfig(num_pes=8, iterations=50)
    plan = ParaConv(config).run(graph)
    report = ScheduleValidator().validate(plan)
    assert report.ok, "\n".join(str(v) for v in report.errors())
