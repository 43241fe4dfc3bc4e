"""Pipeline configuration, registry, CompileStats determinism and the
width-search lower bound."""

import json

import pytest

from repro.compiler import (
    ARTIFACTS,
    PASS_REGISTRY,
    CompileStats,
    PipelineConfig,
    PipelineConfigError,
    build_pass,
    transfer_critical_path,
    width_lower_bound,
)
from repro.core.allocation import dp_allocate
from repro.core.paraconv import ParaConv
from repro.core.scheduler import candidate_group_widths
from repro.pim.config import PimConfig

STANDARD_ORDER = [
    "validate-graph",
    "compact-kernel",
    "analyze-edges",
    "zero-dr-prepass",
    "dp-allocate",
    "solve-retiming",
    "emit-schedule",
    "validate-schedule",
]
KERNEL_STAGE = ["compact-kernel", "analyze-edges"]
PLAN_STAGE = STANDARD_ORDER[1 + len(KERNEL_STAGE):]


class TestPipelineConfig:
    def test_standard_pipeline_order(self):
        config = PipelineConfig(allocator=dp_allocate)
        names = [p.name for p in config.build_passes()]
        assert names == STANDARD_ORDER

    def test_liveness_inserts_reweight_pass(self):
        config = PipelineConfig(allocator=dp_allocate, liveness_aware=True)
        names = [p.name for p in config.build_passes()]
        assert "liveness-reweight" in names
        assert names.index("liveness-reweight") == names.index("dp-allocate") + 1
        assert names.index("liveness-reweight") < names.index("solve-retiming")

    def test_validate_false_drops_schedule_validation(self):
        config = PipelineConfig(allocator=dp_allocate, validate=False)
        names = [p.name for p in config.build_passes()]
        assert "validate-schedule" not in names

    def test_registry_covers_standard_passes(self):
        for name in STANDARD_ORDER + ["liveness-reweight"]:
            assert name in PASS_REGISTRY

    def test_every_artifact_has_a_canonical_name(self):
        manager = PipelineConfig(allocator=dp_allocate).build_manager()
        produced = {
            artifact for p in manager.passes for artifact in p.produces
        }
        assert produced == set(ARTIFACTS)

    def test_stages_split_the_per_width_passes(self):
        config = PipelineConfig(allocator=dp_allocate)
        assert [p.name for p in config.kernel_stage()] == KERNEL_STAGE
        assert [p.name for p in config.plan_stage()] == PLAN_STAGE
        assert config.plan_manager().initial_artifacts == {
            "graph-valid", "kernel", "timings"
        }

    def test_analysis_context_stops_after_the_kernel_stage(
        self, figure2_graph, small_config
    ):
        from repro.runtime.plan_cache import plan_to_dict

        pipeline = ParaConv(small_config, liveness_aware=True)
        ctx = pipeline.analysis_context(figure2_graph, 2)
        assert ctx.artifact_names() == ["graph-valid", "kernel", "timings"]
        completed = pipeline.run_from_context(ctx.fork())
        assert plan_to_dict(completed) == plan_to_dict(
            pipeline.run_at_width(figure2_graph, 2)
        )

    def test_unknown_kernel_order_rejected_at_construction(self):
        with pytest.raises(PipelineConfigError, match="lpt, topological"):
            PipelineConfig(allocator=dp_allocate, kernel_order="bogus")

    def test_paraconv_rejects_unknown_kernel_order_before_compiling(self):
        with pytest.raises(PipelineConfigError, match="'bogus'.*lpt, topological"):
            ParaConv(PimConfig(num_pes=4), kernel_order="bogus")

    def test_build_pass_unknown_name_is_typed(self):
        with pytest.raises(PipelineConfigError):
            build_pass("lower-to-llvm")

    def test_build_pass_constructs_registered(self):
        p = build_pass("compact-kernel", order="lpt", validate=False)
        assert p.name == "compact-kernel"
        assert p.order == "lpt"


class TestCompileStatsDeterminism:
    def test_as_dict_keys_deterministic(self, figure2_graph, small_config):
        dicts = [
            ParaConv(small_config).run(figure2_graph).compile_stats.as_dict()
            for _ in range(2)
        ]
        # Same key structure, in the same (sorted) order, every compile.
        assert list(dicts[0]) == list(dicts[1])
        for a, b in zip(dicts[0]["pass_seconds"], dicts[1]["pass_seconds"]):
            assert a == b
        assert list(dicts[0]["pass_seconds"]) == sorted(dicts[0]["pass_seconds"])
        assert list(dicts[0]["pass_runs"]) == sorted(dicts[0]["pass_runs"])
        # And the non-timing facts are bit-identical run to run.
        for d in dicts:
            for volatile in ("pass_seconds", "per_width_seconds",
                             "total_seconds"):
                d.pop(volatile)
        assert dicts[0] == dicts[1]

    def test_as_dict_is_json_compatible(self, figure2_graph, small_config):
        stats = ParaConv(small_config).run(figure2_graph).compile_stats
        payload = json.loads(json.dumps(stats.as_dict()))
        assert payload["best_width"] == stats.best_width

    def test_stats_cover_every_executed_pass(self, figure2_graph, small_config):
        stats = ParaConv(small_config).run(figure2_graph).compile_stats
        assert set(stats.pass_runs) == set(STANDARD_ORDER)
        # validate-graph is hoisted: exactly once regardless of widths.
        assert stats.pass_runs["validate-graph"] == 1
        ran_kernel_stage = stats.num_explored + len(
            stats.widths_cut_after_kernel
        )
        for name in KERNEL_STAGE:
            assert stats.pass_runs[name] == ran_kernel_stage
        for name in PLAN_STAGE:
            assert stats.pass_runs[name] == stats.num_explored

    def test_cut_widths_run_only_the_kernel_stage(self):
        from repro.graph.generators import synthetic_benchmark

        config = PimConfig(num_pes=64, iterations=1000)
        stats = ParaConv(config).run(synthetic_benchmark("protein")).compile_stats
        cut = stats.widths_cut_after_kernel
        assert cut and set(cut) <= set(stats.widths_pruned)
        assert not set(cut) & set(stats.widths_explored)
        assert stats.pass_runs["compact-kernel"] == stats.num_explored + len(cut)
        assert stats.pass_runs["dp-allocate"] == stats.num_explored
        assert "cut after kernel" in stats.explain()
        for width in cut:
            assert str(width) in stats.explain()

    def test_explain_mentions_passes_and_search(self, figure2_graph, small_config):
        result = ParaConv(small_config).run(figure2_graph)
        text = result.explain()
        for name in STANDARD_ORDER:
            assert name in text
        assert "widths explored" in text
        assert "best width" in text
        assert str(result.group_width) in text

    def test_explain_without_stats_is_graceful(self, figure2_graph, small_config):
        result = ParaConv(small_config).run(figure2_graph)
        result.compile_stats = None
        assert "no compile stats" in result.explain()


class TestWidthLowerBound:
    def test_bound_never_exceeds_actual(self, figure2_graph):
        config = PimConfig(num_pes=8, iterations=100)
        for width in candidate_group_widths(config.num_pes):
            result = ParaConv(config).run_at_width(figure2_graph, width)
            bound = width_lower_bound(
                figure2_graph, width, result.num_groups, config.iterations
            )
            assert bound <= result.total_time()

    def test_precomputed_inputs_match_recomputed(self, figure2_graph):
        lazy = width_lower_bound(figure2_graph, 2, 2, 100)
        eager = width_lower_bound(
            figure2_graph, 2, 2, 100,
            total_work=figure2_graph.total_work(),
            max_execution_time=figure2_graph.max_execution_time(),
        )
        assert lazy == eager

    def test_degenerate_arguments_rejected(self, figure2_graph):
        for bad in [(0, 1, 1), (1, 0, 1), (1, 1, 0)]:
            with pytest.raises(PipelineConfigError):
                width_lower_bound(figure2_graph, *bad)

    def test_transfer_term_sharpens_without_breaking_soundness(
        self, figure2_graph
    ):
        """The two-term bound is >= the load-balance-only bound and still
        never exceeds the realized total (N = 1 is the stressing regime:
        the prologue dominates and only the critical-path term sees it)."""
        config = PimConfig(num_pes=8, iterations=1)
        for width in candidate_group_widths(config.num_pes):
            result = ParaConv(config).run_at_width(figure2_graph, width)
            lbb_only = width_lower_bound(
                figure2_graph, width, result.num_groups, 1
            )
            sharpened = width_lower_bound(
                figure2_graph, width, result.num_groups, 1, config=config
            )
            assert lbb_only <= sharpened <= result.total_time()

    def test_transfer_critical_path_on_a_chain(self):
        """Hand-computable case: a 3-stage chain with one expensive edge.

        Node weights 2, 3, 1; both edges carry 16384 bytes = 2 cache
        units. With ``period_floor=5`` neither edge is clamped:
        ``cp = 2 + 2 + 3 + 2 + 1 = 10``. With ``period_floor=1`` both
        clamp to 1: ``cp = 2 + 1 + 3 + 1 + 1 = 8``.
        """
        from repro.graph.taskgraph import linear_chain

        graph = linear_chain([2, 3, 1], size_bytes=16384)
        config = PimConfig(num_pes=4)
        assert config.cache_transfer_units(16384) == 2
        assert transfer_critical_path(graph, config, 5) == 10
        assert transfer_critical_path(graph, config, 1) == 8

    def test_precomputed_cp_matches_recomputed(self, figure2_graph):
        config = PimConfig(num_pes=8, iterations=50)
        import math

        width, groups = 2, 4
        floor = max(
            math.ceil(figure2_graph.total_work() / width),
            figure2_graph.max_execution_time(),
        )
        eager = width_lower_bound(
            figure2_graph,
            width,
            groups,
            50,
            cp_transfer=transfer_critical_path(figure2_graph, config, floor),
        )
        lazy = width_lower_bound(
            figure2_graph, width, groups, 50, config=config
        )
        assert eager == lazy

    def test_record_helpers(self):
        stats = CompileStats()
        stats.record_width(4, 0.5)
        stats.record_pruned(2)
        stats.record_cut(3)
        stats.record_pass("dp-allocate", 0.25)
        stats.record_pass("dp-allocate", 0.25)
        assert stats.num_explored == 1
        assert stats.num_pruned == 2
        assert stats.widths_cut_after_kernel == [3]
        assert stats.pass_runs["dp-allocate"] == 2
        assert stats.pass_seconds_total == pytest.approx(0.5)
