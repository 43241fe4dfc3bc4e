"""Tests for the retiming analysis (paper Sections 2.3 and 3.2)."""


import pytest
from hypothesis import given, settings, strategies as st

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.core.retiming import (
    EdgeTiming,
    RetimingError,
    analyze_edges,
    placed_deltas,
    required_retiming,
    solve_retiming,
)
from repro.core.scheduler import compact_kernel_schedule
from repro.graph.generators import SyntheticGraphGenerator
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement
from tests.builders import row_deltas


class TestRequiredRetiming:
    def test_no_retiming_when_slack(self):
        # producer finishes at 2, transfer 0, consumer starts at 5
        assert required_retiming(finish=2, start=5, transfer=0, period=10) == 0

    def test_exact_fit_needs_none(self):
        assert required_retiming(finish=3, start=3, transfer=0, period=10) == 0

    def test_one_iteration(self):
        assert required_retiming(finish=5, start=2, transfer=0, period=10) == 1

    def test_two_iterations(self):
        # worst legal case: finish = p, transfer = p, start = 0
        assert required_retiming(finish=10, start=0, transfer=10, period=10) == 2

    def test_transfer_pushes_over(self):
        assert required_retiming(finish=3, start=4, transfer=2, period=10) == 1

    def test_invalid_inputs(self):
        with pytest.raises(RetimingError):
            required_retiming(0, 0, 0, 0)
        with pytest.raises(RetimingError):
            required_retiming(0, 0, -1, 5)

    @given(
        finish=st.integers(min_value=0, max_value=50),
        start=st.integers(min_value=0, max_value=50),
        transfer=st.integers(min_value=0, max_value=50),
        period=st.integers(min_value=1, max_value=50),
    )
    @settings(max_examples=100, deadline=None)
    def test_result_is_minimal(self, finish, start, transfer, period):
        delta = required_retiming(finish, start, transfer, period)
        # delta satisfies the arrival constraint...
        assert finish + transfer <= delta * period + start
        # ...and delta - 1 would not
        if delta > 0:
            assert finish + transfer > (delta - 1) * period + start

    @given(
        finish=st.integers(min_value=0, max_value=30),
        start=st.integers(min_value=0, max_value=30),
        period=st.integers(min_value=1, max_value=30),
    )
    @settings(max_examples=100, deadline=None)
    def test_theorem_bound_under_premises(self, finish, start, period):
        # Theorem 3.1 premises: finish <= p and transfer <= p
        finish = min(finish, period)
        transfer = min(start, period)  # any transfer <= p works
        delta = required_retiming(finish, start, transfer, period)
        assert delta <= 2


class TestAnalyzeEdges:
    def test_all_edges_analyzed(self, figure2_graph, small_config):
        kernel = compact_kernel_schedule(figure2_graph, small_config.num_pes)
        timings = analyze_edges(figure2_graph, kernel, small_config)
        assert set(timings) == {e.key for e in figure2_graph.edges()}

    def test_deltas_within_theorem_bound(self, figure2_graph, small_config):
        kernel = compact_kernel_schedule(figure2_graph, small_config.num_pes)
        for timing in analyze_edges(figure2_graph, kernel, small_config).values():
            assert 0 <= timing.delta_cache <= 2
            assert timing.delta_cache <= timing.delta_edram <= 2

    def test_deltas_match_required_retiming(self, figure2_graph, small_config):
        kernel = compact_kernel_schedule(figure2_graph, small_config.num_pes)
        timings = analyze_edges(figure2_graph, kernel, small_config)
        for (producer, consumer), timing in timings.items():
            finish = kernel.placement(producer).finish
            start = kernel.placement(consumer).start
            assert timing.delta_cache == required_retiming(
                finish, start, timing.transfer_cache, kernel.period
            )
            assert timing.delta_edram == required_retiming(
                finish, start, timing.transfer_edram, kernel.period
            )

    def test_delta_r_non_negative(self, figure2_graph, small_config):
        kernel = compact_kernel_schedule(figure2_graph, small_config.num_pes)
        for timing in analyze_edges(figure2_graph, kernel, small_config).values():
            assert timing.delta_r == timing.delta_edram - timing.delta_cache
            assert timing.delta_r >= 0

    def test_transfer_clamped_to_period(self, small_config):
        graph = TaskGraph()
        graph.add_op(0, execution_time=1)
        graph.add_op(1, execution_time=1)
        graph.connect(0, 1, size_bytes=1_000_000)  # enormous transfer
        kernel = compact_kernel_schedule(graph, 2)
        timings = analyze_edges(graph, kernel, small_config)
        assert timings[(0, 1)].transfer_edram <= kernel.period

    def test_deadline_is_consumer_start(self, figure2_graph, small_config):
        kernel = compact_kernel_schedule(figure2_graph, small_config.num_pes)
        timings = analyze_edges(figure2_graph, kernel, small_config)
        for key, timing in timings.items():
            assert timing.deadline == kernel.placement(key[1]).start

    def test_accessors(self):
        timing = EdgeTiming(
            key=(0, 1), transfer_cache=0, transfer_edram=2,
            delta_cache=0, delta_edram=1, slots=2, deadline=3,
        )
        assert timing.delta_for(Placement.CACHE) == 0
        assert timing.delta_for(Placement.EDRAM) == 1
        assert timing.transfer_for(Placement.CACHE) == 0
        assert timing.transfer_for(Placement.EDRAM) == 2


class TestSolveRetiming:
    def test_chain_accumulates(self, chain_graph):
        deltas = {e.key: 1 for e in chain_graph.edges()}
        solution = solve_retiming(chain_graph, row_deltas(chain_graph, deltas))
        assert solution.max_retiming == 5  # 5 edges, 1 each
        assert solution.vertex_retiming[0] == 5
        assert solution.vertex_retiming[5] == 0

    def test_zero_deltas_zero_retiming(self, figure2_graph):
        deltas = {e.key: 0 for e in figure2_graph.edges()}
        solution = solve_retiming(figure2_graph, row_deltas(figure2_graph, deltas))
        assert solution.max_retiming == 0

    def test_legality(self, figure2_graph):
        deltas = {e.key: (1 if e.producer == 0 else 0) for e in figure2_graph.edges()}
        solution = solve_retiming(figure2_graph, row_deltas(figure2_graph, deltas))
        assert solution.is_legal()
        for (i, j), r_ij in solution.edge_retiming.items():
            assert solution.vertex_retiming[i] >= r_ij >= solution.vertex_retiming[j]

    def test_minimality(self, diamond_graph):
        # R must be the pointwise minimum satisfying all constraints:
        deltas = {(0, 1): 2, (0, 2): 0, (1, 3): 0, (2, 3): 1}
        solution = solve_retiming(diamond_graph, row_deltas(diamond_graph, deltas))
        r = solution.vertex_retiming
        assert r[3] == 0
        assert r[1] == 0
        assert r[2] == 1
        assert r[0] == 2  # max(r1 + 2, r2 + 0)

    def test_missing_delta_rejected(self, diamond_graph):
        with pytest.raises(RetimingError, match="missing"):
            solve_retiming(diamond_graph, [0])

    def test_negative_delta_rejected(self, diamond_graph):
        deltas = {e.key: 0 for e in diamond_graph.edges()}
        deltas[(0, 1)] = -1
        with pytest.raises(RetimingError, match="negative"):
            solve_retiming(diamond_graph, row_deltas(diamond_graph, deltas))

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=25, deadline=None)
    def test_every_edge_constraint_satisfied(self, seed):
        graph = SyntheticGraphGenerator().generate(30, 60, seed=seed)
        import random

        rng = random.Random(seed)
        deltas = {e.key: rng.randint(0, 2) for e in graph.edges()}
        solution = solve_retiming(graph, row_deltas(graph, deltas))
        for (i, j), delta in deltas.items():
            assert (
                solution.vertex_retiming[i] - solution.vertex_retiming[j]
                >= delta
            )


class TestPlacementRetiming:
    def test_all_cache_never_worse_than_all_edram(self, paper_config):
        graph = SyntheticGraphGenerator().generate(40, 90, seed=11)
        kernel = compact_kernel_schedule(graph, 8)
        timings = analyze_edges(graph, kernel, paper_config)
        all_cache = {k: Placement.CACHE for k in timings}
        all_edram = {k: Placement.EDRAM for k in timings}
        r_cache = solve_retiming(
            graph, placed_deltas(timings, all_cache)
        ).max_retiming
        r_edram = solve_retiming(
            graph, placed_deltas(timings, all_edram)
        ).max_retiming
        assert r_cache <= r_edram


class TestColumnsMatchReference:
    """``required_retiming`` is the reference for the delta formula that
    ``analyze_edges`` computes inline on whole columns."""

    @pytest.mark.parametrize("cache_bytes_per_unit", [None, 1024])
    @pytest.mark.parametrize("pes", [16, 64])
    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_every_row_equals_required_retiming(
        self, name, pes, cache_bytes_per_unit
    ):
        config = PimConfig(num_pes=pes, iterations=1000)
        if cache_bytes_per_unit is not None:
            # Transfers of a unit and more, so the clamp to p bites too.
            config = PimConfig(
                num_pes=pes, iterations=1000,
                cache_bytes_per_unit=cache_bytes_per_unit,
            )
        graph = load_workload(name)
        para = ParaConv(config)
        explored = para.run(graph).compile_stats.widths_explored
        assert explored
        for width in explored:
            ctx = para.analysis_context(graph, width)
            kernel, timings = ctx.get("kernel"), ctx.get("timings")
            period = kernel.period
            for row, key in enumerate(timings.edge_keys):
                finish = kernel.placement(key[0]).finish
                start = kernel.placement(key[1]).start
                size = graph.edge(*key).size_bytes
                for transfer, delta in (
                    (config.cache_transfer_units(size), timings.delta_cache),
                    (config.edram_transfer_units(size), timings.delta_edram),
                ):
                    assert delta[row] == required_retiming(
                        finish, start, min(transfer, period), period
                    ), (width, key)
