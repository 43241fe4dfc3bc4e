"""Edge cases of the brute-force allocation oracle.

The oracle is the ground truth the DP allocator is held to, so its own
degenerate behavior must be pinned: empty instances, instances where
everything fits, the one-PE machine, deterministic tie-breaking, and the
size guard.
"""

from __future__ import annotations

import pytest

from repro.core.allocation import (
    AllocationItem,
    AllocationProblem,
    dp_allocate,
)
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.verify import oracle
from repro.verify.oracle import (
    MAX_EXHAUSTIVE_LIMIT,
    OracleSizeError,
    allocation_instance,
    exhaustive_allocate,
)


def make_problem(spec, capacity):
    return AllocationProblem(
        items=[
            AllocationItem(key=(i, i + 1), slots=s, delta_r=v, deadline=i)
            for i, (s, v) in enumerate(spec)
        ],
        capacity_slots=capacity,
    )


def test_zero_items():
    problem = AllocationProblem(items=[], capacity_slots=8)
    result = exhaustive_allocate(problem)
    assert result.method == "exhaustive"
    assert result.cached == []
    assert result.total_delta_r == 0
    assert result.slots_used == 0


def test_zero_items_zero_capacity():
    problem = AllocationProblem(items=[], capacity_slots=0)
    result = exhaustive_allocate(problem)
    assert result.total_delta_r == 0
    assert result.slots_used == 0


def test_all_items_fit():
    """Capacity >= total demand: the optimum caches everything."""
    spec = [(2, 5), (3, 1), (1, 4), (4, 2)]
    problem = make_problem(spec, capacity=sum(s for s, _ in spec))
    result = exhaustive_allocate(problem)
    assert result.total_delta_r == sum(v for _, v in spec)
    assert result.slots_used == sum(s for s, _ in spec)
    assert sorted(result.cached) == sorted(item.key for item in problem.items)


def test_single_pe_machine_instance():
    """The one-PE machine compiles to an instance the oracle agrees on."""
    config = PimConfig(num_pes=1)
    graph = synthetic_benchmark("cat")
    problem, _ = allocation_instance(graph, config)
    optimum = exhaustive_allocate(problem)
    assert optimum.slots_used <= problem.capacity_slots
    assert dp_allocate(problem).total_delta_r == optimum.total_delta_r


def test_tie_break_prefers_fewer_slots():
    """Equal profit: the oracle returns the smaller footprint."""
    # Capacity admits exactly one item; both yield profit 6, but the
    # 1-slot item has the smaller footprint.
    problem = make_problem([(1, 6), (2, 6)], capacity=2)
    result = exhaustive_allocate(problem)
    assert result.total_delta_r == 6
    assert result.slots_used == 1
    assert result.cached == [(0, 1)]


def test_tie_break_is_deterministic_on_equal_profit_and_slots():
    """Two optima with identical profit AND slots: the pick is stable."""
    # Two items, identical (slots, profit); capacity admits exactly one,
    # so only the key ordering can break the tie. Pin the exact outcome
    # so any change to the enumeration order surfaces here.
    problem = make_problem([(2, 5), (2, 5)], capacity=2)
    first = exhaustive_allocate(problem)
    second = exhaustive_allocate(problem)
    assert first.cached == second.cached
    assert first.total_delta_r == 5
    assert first.cached == [(1, 2)]


def test_size_guard():
    spec = [(1, 1)] * 17
    problem = make_problem(spec, capacity=8)
    with pytest.raises(OracleSizeError):
        exhaustive_allocate(problem, limit=16)
    # raising the limit admits the instance
    result = exhaustive_allocate(problem, limit=17)
    assert result.total_delta_r == 8


@pytest.mark.parametrize("items", [1, 30])
def test_limit_above_the_ceiling_raises_before_enumerating(
    items, monkeypatch
):
    """A limit past the ceiling is refused before any subset matrix is
    built, whatever the instance's size."""

    class NoTable:
        @staticmethod
        def of(problem):
            raise AssertionError("the oracle built a profit table")

    monkeypatch.setattr(oracle, "ProfitTable", NoTable)
    problem = make_problem([(1, 1)] * items, capacity=8)
    with pytest.raises(OracleSizeError, match=f"1..{MAX_EXHAUSTIVE_LIMIT}"):
        exhaustive_allocate(problem, limit=max(items, MAX_EXHAUSTIVE_LIMIT + 1))
    with pytest.raises(OracleSizeError, match="exceed the exhaustive limit"):
        exhaustive_allocate(problem, limit=0)


def test_oracle_equality_with_indifferent_edges():
    """Indifferent (zero-profit) edges never enter the enumeration."""
    problem = AllocationProblem(
        items=[
            AllocationItem(key=(0, 1), slots=2, delta_r=3, deadline=0),
            AllocationItem(key=(1, 2), slots=2, delta_r=2, deadline=1),
        ],
        capacity_slots=2,
        indifferent=[(2, 3), (3, 4)],
    )
    result = exhaustive_allocate(problem)
    assert result.total_delta_r == 3
    assert result.cached == [(0, 1)]
