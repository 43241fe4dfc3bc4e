"""Tests for the Section 3.3 dynamic program and the ablation allocators.

The key property test checks the DP against brute-force subset enumeration:
on every random instance small enough to enumerate, ``B[S, n]`` must equal
the true optimum.
"""

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.allocation import (
    ALLOCATORS,
    AllocationError,
    AllocationItem,
    AllocationProblem,
    all_edram_allocate,
    dp_allocate,
    greedy_allocate,
    oracle_allocate,
    random_allocate,
    resolve_allocator,
)
from repro.core.paraconv import ParaConv
from repro.core.retiming import EdgeTiming
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement
from repro.verify.mutation import fault_detection_report
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


class TestRowColumns:
    """Placements are one row column of the graph's index, written by the
    single ``_finalize`` every allocator ends in."""

    @pytest.mark.parametrize("pes", [16, 64])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_allocator_places_each_edge_row_once(self, name, pes):
        graph = load_workload(name)
        keys = list(graph.index().edge_keys)
        for method in sorted(ALLOCATORS):
            result = ParaConv(
                PimConfig(num_pes=pes, iterations=1000), allocator_name=method
            ).run(graph)
            placements = result.allocation.placements
            assert list(placements) == keys, method
            assert len(placements) == len(keys), method
            assert sorted(result.allocation.cached) == sorted(
                key for key in keys if placements[key] is Placement.CACHE
            ), method
            assert placements == result.schedule.placements, method

    @pytest.mark.parametrize("method", sorted(ALLOCATORS))
    def test_hand_built_problem_serves_every_allocator(self, method):
        # No timings: the problem's rows are its indifferent keys, then
        # its item keys. The iterative factory still needs a graph.
        graph = TaskGraph("hand-built")
        for op_id in range(5):
            graph.add_op(op_id, execution_time=1)
        for key in [(0, 1), (1, 2), (2, 3), (3, 4)]:
            graph.connect(*key, size_bytes=1)
        timings = timings_table([
            EdgeTiming((0, 1), 0, 1, 0, 2, 2, 0),
            EdgeTiming((1, 2), 0, 1, 0, 1, 3, 1),
            EdgeTiming((2, 3), 0, 1, 0, 1, 1, 2),
            EdgeTiming((3, 4), 0, 1, 1, 1, 1, 3),
        ])
        problem = AllocationProblem(
            items=[
                AllocationItem((0, 1), 2, 2, 0),
                AllocationItem((1, 2), 3, 1, 1),
                AllocationItem((2, 3), 1, 1, 2),
            ],
            capacity_slots=3,
            indifferent=[(3, 4)],
        )
        result = resolve_allocator(method, graph, timings)(problem)
        assert list(result.placements) == [(3, 4), (0, 1), (1, 2), (2, 3)]
        assert result.placements[(3, 4)] is Placement.EDRAM
        assert [
            key for key, where in result.placements.items()
            if where is Placement.CACHE
        ] == result.cached
        assert problem.indifferent == [(3, 4)]

    @pytest.mark.parametrize("route", ["hand-built", "timings"])
    def test_key_both_competing_and_indifferent_rejected(self, route):
        if route == "hand-built":
            problem = make_problem([(1, 1), (2, 1)], capacity=5,
                                   indifferent=[(0, 1)])
        else:
            timings = timings_table([
                EdgeTiming((0, 1), 0, 1, 0, 0, 2, 5),  # ΔR = 0: indifferent
                EdgeTiming((1, 2), 0, 1, 0, 1, 2, 3),
            ])
            problem = AllocationProblem.from_timings(timings, capacity_slots=10)
            problem.validate()
            problem.items.append(AllocationItem((0, 1), 2, 1, 5))
        with pytest.raises(AllocationError, match="competing and indifferent"):
            problem.validate()

    def test_indifferent_derived_from_rows(self):
        timings = timings_table([
            EdgeTiming((2, 3), 0, 1, 0, 0, 1, 0),
            EdgeTiming((0, 1), 0, 1, 1, 1, 1, 0),
            EdgeTiming((1, 2), 0, 1, 0, 2, 1, 0),
        ])
        problem = AllocationProblem.from_timings(timings, capacity_slots=1)
        assert problem.indifferent == [(0, 1), (2, 3)]
        result = dp_allocate(problem)
        assert list(result.placements) == [(2, 3), (0, 1), (1, 2)]
        assert result.cached == [(1, 2)]

    @pytest.mark.parametrize("name", ["cat", "flower", "speech-1"])
    def test_placement_flip_mutants_still_caught(self, name):
        plan = ParaConv(PimConfig(num_pes=16, iterations=1000)).run(
            load_workload(name)
        )
        flips = ["flip-placement", "search-overfill-candidate"]
        for seed in range(3):
            report = fault_detection_report(plan, seed=seed, mutators=flips)
            assert report.ok, (seed, report.missed)
            assert "flip-placement" in report.detected, seed
