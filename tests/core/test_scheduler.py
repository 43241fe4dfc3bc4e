"""Tests for the kernel compactor, list scheduler and width policies."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schedule import ScheduleError, validate_kernel
from repro.core.scheduler import (
    MIN_GROUP_WIDTH,
    candidate_group_widths,
    compact_kernel_schedule,
    downward_rank,
    list_schedule,
    load_balance_bound,
)
from repro.graph.generators import SyntheticGraphGenerator
from repro.graph.taskgraph import TaskGraph


class TestLoadBalanceBound:
    def test_work_limited(self, figure2_graph):
        # 5 unit ops on 2 PEs -> ceil(5/2) = 3
        assert load_balance_bound(figure2_graph, 2) == 3

    def test_longest_op_limited(self, chain_graph):
        # max c_i = 3 dominates when many PEs
        assert load_balance_bound(chain_graph, 100) == 3

    def test_empty_graph(self):
        assert load_balance_bound(TaskGraph(), 4) == 0

    def test_invalid_pes(self, figure2_graph):
        with pytest.raises(ScheduleError):
            load_balance_bound(figure2_graph, 0)


class TestCompactKernel:
    def test_resource_feasible(self, figure2_graph):
        kernel = compact_kernel_schedule(figure2_graph, 2)
        validate_kernel(figure2_graph, kernel, 2)

    def test_meets_bound_for_unit_times(self, figure2_graph):
        kernel = compact_kernel_schedule(figure2_graph, 2)
        assert kernel.period == load_balance_bound(figure2_graph, 2)

    def test_greedy_within_two_of_optimal(self, chain_graph):
        for pes in (1, 2, 3, 6):
            kernel = compact_kernel_schedule(chain_graph, pes)
            assert kernel.period <= 2 * load_balance_bound(chain_graph, pes)

    def test_topological_order_places_producers_first(self, chain_graph):
        kernel = compact_kernel_schedule(chain_graph, 2, order="topological")
        for left, right in zip(range(5), range(1, 6)):
            assert kernel.placement(left).start <= kernel.placement(right).start

    def test_lpt_order_available(self, chain_graph):
        kernel = compact_kernel_schedule(chain_graph, 2, order="lpt")
        validate_kernel(chain_graph, kernel, 2)

    def test_unknown_order_rejected(self, chain_graph):
        with pytest.raises(ScheduleError, match="unknown packing order"):
            compact_kernel_schedule(chain_graph, 2, order="zigzag")

    def test_deterministic(self, figure2_graph):
        a = compact_kernel_schedule(figure2_graph, 3)
        b = compact_kernel_schedule(figure2_graph, 3)
        assert a == b

    @given(
        n=st.integers(min_value=2, max_value=40),
        pes=st.integers(min_value=1, max_value=16),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_always_feasible(self, n, pes, seed):
        graph = SyntheticGraphGenerator().generate(n, n - 1 + n // 3, seed=seed)
        kernel = compact_kernel_schedule(graph, pes)
        validate_kernel(graph, kernel, pes)
        assert kernel.period >= load_balance_bound(graph, pes)


class TestListSchedule:
    def test_honors_dependencies(self, chain_graph):
        kernel = list_schedule(chain_graph, 4)
        for left in range(5):
            assert (
                kernel.placement(left).finish
                <= kernel.placement(left + 1).start
            )

    def test_edge_latency_delays_consumers(self, chain_graph):
        plain = list_schedule(chain_graph, 2)
        slowed = list_schedule(chain_graph, 2, edge_latency=lambda e: 2)
        assert slowed.period == plain.period + 2 * 5  # 5 chain edges

    def test_chain_is_serial(self, chain_graph):
        kernel = list_schedule(chain_graph, 8)
        assert kernel.period == chain_graph.total_work()

    def test_parallel_branches_overlap(self, diamond_graph):
        kernel = list_schedule(diamond_graph, 2)
        assert kernel.period == 4  # 1 + 2 (parallel branches) + 1

    def test_single_pe_serializes(self, diamond_graph):
        kernel = list_schedule(diamond_graph, 1)
        assert kernel.period == diamond_graph.total_work()

    def test_respects_priority_override(self, figure2_graph):
        prio = {op.op_id: 0 for op in figure2_graph.operations()}
        kernel = list_schedule(figure2_graph, 2, priority=prio)
        validate_kernel(figure2_graph, kernel, 2)

    def test_invalid_pes(self, figure2_graph):
        with pytest.raises(ScheduleError):
            list_schedule(figure2_graph, 0)

    @given(
        n=st.integers(min_value=2, max_value=40),
        pes=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=500),
    )
    @settings(max_examples=30, deadline=None)
    def test_dependencies_always_honored(self, n, pes, seed):
        graph = SyntheticGraphGenerator().generate(n, n - 1 + n // 3, seed=seed)
        kernel = list_schedule(graph, pes, edge_latency=lambda e: 1)
        validate_kernel(graph, kernel, pes)
        for edge in graph.edges():
            assert (
                kernel.placement(edge.producer).finish + 1
                <= kernel.placement(edge.consumer).start
            )


class TestDownwardRank:
    def test_rank_decreases_along_edges(self, figure2_graph):
        rank = downward_rank(figure2_graph, lambda e: 0)
        for edge in figure2_graph.edges():
            assert rank[edge.producer] > rank[edge.consumer]

    def test_sink_rank_is_execution_time(self, chain_graph):
        rank = downward_rank(chain_graph, lambda e: 0)
        assert rank[5] == 1

    def test_chain_rank_accumulates(self, chain_graph):
        rank = downward_rank(chain_graph, lambda e: 0)
        assert rank[0] == chain_graph.total_work()


class TestWidthPolicies:
    def test_candidate_widths_widest_first(self):
        widths = candidate_group_widths(16)
        assert widths[0] == 16
        assert widths == sorted(set(widths), reverse=True)
        assert min(widths) >= MIN_GROUP_WIDTH

    def test_candidate_widths_tiny_array(self):
        assert candidate_group_widths(1) == [1]
        assert candidate_group_widths(2) == [2]

    def test_candidate_widths_invalid(self):
        with pytest.raises(ScheduleError):
            candidate_group_widths(0)
