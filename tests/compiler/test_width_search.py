"""Width-search behaviour: explicit tie-break, best-first order, pruning
soundness, and the differential check against the golden (pre-refactor)
plans."""

import pytest

from repro.compiler import kernel_stage_floor, width_lower_bound
from repro.core.paraconv import ParaConv
from repro.core.scheduler import candidate_group_widths
from repro.graph.generators import BENCHMARK_SIZES, synthetic_benchmark
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from tests.golden.regen import load_golden, plan_digest


@pytest.fixture
def tied_graph() -> TaskGraph:
    """One 3-unit op on a 4-PE array with N=1: a constructed exact tie.

    Width 4 (one group) and width 2 (two groups) both finish in 3 units:
    the single op bounds the period at 3 either way, the prologue is 0,
    and ``ceil(1/J) = 1`` for both ``J``. The explicit ``(total_time,
    -width)`` key must pick the *wider* group.
    """
    graph = TaskGraph(name="tied")
    graph.add_op(0, execution_time=3)
    graph.validate()
    return graph


class TestTieBreak:
    def test_constructed_tie_prefers_wider(self, tied_graph):
        config = PimConfig(num_pes=4, iterations=1)
        # Confirm the tie actually exists, then that the search resolves
        # it toward the wider group.
        times = {
            width: ParaConv(config).run_at_width(tied_graph, width).total_time()
            for width in candidate_group_widths(4)
        }
        assert len(set(times.values())) == 1, f"tie broken upstream: {times}"
        result = ParaConv(config, prune_widths=False).run(tied_graph)
        assert result.group_width == max(times)

    def test_tie_break_independent_of_enumeration_order(
        self, tied_graph, monkeypatch
    ):
        """Reversing candidate enumeration must not change the winner.

        The legacy strict-``<`` comparison was only correct because
        candidates arrived widest-first; the explicit key must survive any
        order.
        """
        import repro.core.paraconv as paraconv_module

        config = PimConfig(num_pes=4, iterations=1)
        forward = ParaConv(config, prune_widths=False).run(tied_graph)

        original = candidate_group_widths
        monkeypatch.setattr(
            paraconv_module,
            "candidate_group_widths",
            lambda num_pes: list(reversed(original(num_pes))),
        )
        backward = ParaConv(config, prune_widths=False).run(tied_graph)
        assert backward.group_width == forward.group_width
        assert backward.total_time() == forward.total_time()

    def test_pruning_respects_the_tie_break(self, tied_graph):
        """Pruned search must land on the same winner as exhaustive."""
        config = PimConfig(num_pes=4, iterations=1)
        pruned = ParaConv(config).run(tied_graph)
        exhaustive = ParaConv(config, prune_widths=False).run(tied_graph)
        assert pruned.group_width == exhaustive.group_width
        assert pruned.total_time() == exhaustive.total_time()
        # The tie loser is skippable: its bound equals the incumbent.
        assert pruned.compile_stats.num_pruned >= 1


class TestPruningDifferential:
    """Pruned and exhaustive searches must compile bit-identical plans,
    and both must match the golden fixtures compiled before the refactor
    (PR 2), for every paper benchmark."""

    @pytest.fixture(scope="class")
    def golden(self):
        return load_golden()

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SIZES))
    def test_bit_identical_to_golden(self, name, golden):
        config = PimConfig.from_dict(golden["config"])
        graph = synthetic_benchmark(name)
        pruned = ParaConv(config).run(graph)
        exhaustive = ParaConv(config, prune_widths=False).run(graph)
        expected = golden["benchmarks"][name]["plan_sha256"]
        assert plan_digest(pruned) == expected
        assert plan_digest(exhaustive) == expected
        stats = pruned.compile_stats

        # Best-first: the widths that ran, plan or not, are the lowest
        # bound keys, visited in ascending order; the rest were pruned
        # without compiling.
        bound_keys = {
            width: (
                width_lower_bound(
                    graph,
                    width,
                    max(1, config.num_pes // width),
                    config.iterations,
                    config=config,
                ),
                -width,
            )
            for width in candidate_group_widths(config.num_pes)
        }
        order = sorted(bound_keys, key=bound_keys.__getitem__)
        ran = stats.widths_explored + stats.widths_cut_after_kernel
        assert sorted(ran, key=bound_keys.__getitem__) == order[: len(ran)]
        assert stats.widths_explored == sorted(
            stats.widths_explored, key=bound_keys.__getitem__
        )
        assert set(stats.widths_pruned) == set(order) - set(
            stats.widths_explored
        )

        # Every width without a plan provably loses to the exhaustive
        # winner: by its bound key if it never compiled, by its
        # kernel-stage floor key if it was cut after the kernel stage.
        winner = (exhaustive.total_time(), -exhaustive.group_width)
        for width in stats.widths_pruned:
            if width in stats.widths_cut_after_kernel:
                ctx = ParaConv(config).analysis_context(graph, width)
                key = (kernel_stage_floor(ctx, config.iterations), -width)
            else:
                key = bound_keys[width]
            assert key > winner, (width, key, winner)

class TestCompileStatsThreading:
    def test_run_attaches_stats(self, figure2_graph, small_config):
        result = ParaConv(small_config).run(figure2_graph)
        stats = result.compile_stats
        assert stats is not None
        assert stats.best_width == result.group_width
        assert stats.num_explored >= 1
        assert stats.total_seconds > 0.0
        explored_plus_pruned = stats.num_explored + stats.num_pruned
        assert explored_plus_pruned == len(
            candidate_group_widths(small_config.num_pes)
        )

    def test_run_at_width_attaches_stats(self, figure2_graph, small_config):
        result = ParaConv(small_config).run_at_width(figure2_graph, 2)
        stats = result.compile_stats
        assert stats.widths_explored == [2]
        assert stats.best_width == 2
        assert stats.pruning_enabled is False

    def test_stats_never_enter_the_plan_payload(
        self, figure2_graph, small_config
    ):
        from repro.runtime.plan_cache import plan_to_dict

        result = ParaConv(small_config).run(figure2_graph)
        payload = plan_to_dict(result)
        assert "compile_stats" not in payload
