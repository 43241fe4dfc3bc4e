"""Tests for the Section 3.3 dynamic program and the ablation allocators.

The key property test checks the DP against brute-force subset enumeration:
on every random instance small enough to enumerate, ``B[S, n]`` must equal
the true optimum.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationItem,
    AllocationProblem,
    all_edram_allocate,
    dp_allocate,
    greedy_allocate,
    oracle_allocate,
    random_allocate,
)
from repro.core.retiming import EdgeTiming
from repro.pim.memory import Placement
from tests.builders import timings_table


def make_problem(items, capacity, indifferent=()):
    return AllocationProblem(
        items=[
            AllocationItem(key=(i, i + 1), slots=s, delta_r=v, deadline=i)
            for i, (s, v) in enumerate(items)
        ],
        capacity_slots=capacity,
        indifferent=list(indifferent),
    )


def brute_force_best(problem):
    best = 0
    for mask in itertools.product([0, 1], repeat=len(problem.items)):
        slots = sum(
            item.slots for item, take in zip(problem.items, mask) if take
        )
        if slots <= problem.capacity_slots:
            profit = sum(
                item.delta_r for item, take in zip(problem.items, mask) if take
            )
            best = max(best, profit)
    return best


class TestFromTimings:
    def test_zero_delta_r_edges_go_to_edram(self):
        timings = timings_table([
            EdgeTiming((0, 1), 0, 1, 0, 0, 2, 5),  # case 1: ΔR=0
            EdgeTiming((1, 2), 0, 1, 0, 1, 2, 3),  # case 2: ΔR=1
        ])
        problem = AllocationProblem.from_timings(timings, capacity_slots=10)
        assert problem.indifferent == [(0, 1)]
        assert [item.key for item in problem.items] == [(1, 2)]

    def test_items_sorted_by_deadline(self):
        timings = timings_table([
            EdgeTiming((0, 2), 0, 1, 0, 1, 1, 9),
            EdgeTiming((0, 1), 0, 1, 0, 1, 1, 2),
            EdgeTiming((1, 2), 0, 1, 0, 1, 1, 5),
        ])
        problem = AllocationProblem.from_timings(timings, 10)
        deadlines = [item.deadline for item in problem.items]
        assert deadlines == sorted(deadlines)

    def test_negative_capacity_rejected(self):
        from repro.core.retiming import RetimingError

        with pytest.raises(RetimingError):
            AllocationProblem.from_timings({}, -1)


class TestDpOptimality:
    def test_textbook_instance(self):
        # capacity 5; items (slots, value): optimal = 2 + 4 = 6 via items 1+2
        problem = make_problem([(2, 2), (3, 4), (4, 5)], capacity=5)
        result = dp_allocate(problem)
        assert result.total_delta_r == 6
        assert {k for k in result.cached} == {(0, 1), (1, 2)}

    def test_zero_capacity(self):
        problem = make_problem([(1, 5)], capacity=0)
        result = dp_allocate(problem)
        assert result.total_delta_r == 0
        assert result.cached == []

    def test_everything_fits(self):
        problem = make_problem([(1, 1), (1, 2), (1, 3)], capacity=10)
        result = dp_allocate(problem)
        assert result.total_delta_r == 6
        assert result.num_cached == 3

    def test_reconstruction_respects_capacity(self):
        problem = make_problem([(3, 5), (3, 5), (3, 5)], capacity=7)
        result = dp_allocate(problem)
        assert result.slots_used <= 7
        assert result.total_delta_r == 10

    @given(
        items=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=6),   # slots
                st.integers(min_value=0, max_value=5),   # delta_r
            ),
            min_size=0,
            max_size=10,
        ),
        capacity=st.integers(min_value=0, max_value=20),
    )
    @settings(max_examples=80, deadline=None)
    def test_dp_matches_brute_force(self, items, capacity):
        problem = make_problem(items, capacity)
        result = dp_allocate(problem)
        assert result.total_delta_r == brute_force_best(problem)
        assert result.slots_used <= capacity
        # reconstruction must account exactly for the reported profit
        recomputed = sum(
            item.delta_r
            for item in problem.items
            if item.key in set(result.cached)
        )
        assert recomputed == result.total_delta_r


class TestOtherAllocators:
    def test_greedy_never_beats_dp(self):
        problem = make_problem(
            [(2, 3), (3, 4), (4, 5), (5, 6), (1, 1)], capacity=7
        )
        assert (
            greedy_allocate(problem).total_delta_r
            <= dp_allocate(problem).total_delta_r
        )

    def test_random_respects_capacity(self):
        problem = make_problem([(2, 1)] * 10, capacity=5)
        result = random_allocate(problem, seed=3)
        assert result.slots_used <= 5

    def test_random_deterministic_per_seed(self):
        problem = make_problem([(2, 1)] * 10, capacity=9)
        assert random_allocate(problem, seed=1).cached == random_allocate(
            problem, seed=1
        ).cached

    def test_all_edram_caches_nothing(self):
        problem = make_problem([(1, 5)] * 3, capacity=10)
        result = all_edram_allocate(problem)
        assert result.num_cached == 0
        assert all(p is Placement.EDRAM for p in result.placements.values())

    def test_oracle_caches_everything_profitable(self):
        problem = make_problem([(5, 1)] * 4, capacity=2)  # nothing fits
        result = oracle_allocate(problem)
        assert result.num_cached == 4  # capacity-oblivious by design
        assert result.total_delta_r == 4

    def test_placements_cover_indifferent_edges(self):
        problem = make_problem(
            [(1, 1)], capacity=5, indifferent=[(9, 10)]
        )
        result = dp_allocate(problem)
        assert result.placements[(9, 10)] is Placement.EDRAM

    def test_cache_utilization(self):
        problem = make_problem([(5, 5)], capacity=10)
        result = dp_allocate(problem)
        assert result.cache_utilization() == pytest.approx(0.5)
        empty = make_problem([], capacity=0)
        assert dp_allocate(empty).cache_utilization() == 0.0
