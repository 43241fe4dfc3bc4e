"""InferenceSession: compile-once semantics and direct-path equivalence."""

from __future__ import annotations

import pytest

from repro.core.paraconv import ParaConv
from repro.runtime.plan_cache import PlanCache
from repro.runtime.session import InferenceSession
from repro.sim.executor import ScheduleExecutor

from tests.builders import direct_batch


class TestCompileOnce:
    def test_lazy_compile_and_idempotence(self, graph, config):
        session = InferenceSession(graph, config)
        assert not session.is_compiled
        plan = session.plan
        assert session.is_compiled
        assert session.compile() is plan  # no re-plan
        assert session.compilations == 1

    def test_force_recompile(self, graph, config):
        session = InferenceSession(graph, config)
        session.compile()
        session.compile(force=True)
        assert session.compilations == 2

    def test_cache_shared_across_sessions(self, graph, config):
        cache = PlanCache(capacity=4)
        first = InferenceSession(graph, config, cache=cache)
        second = InferenceSession(graph.copy(), config, cache=cache)
        plan_a = first.plan
        plan_b = second.plan
        # Content-addressed hit: the compiled tables are the first plan's,
        # served on the second session's own graph.
        assert plan_b.schedule is plan_a.schedule
        assert plan_b.allocation is plan_a.allocation
        assert plan_b.graph is second.graph
        assert first.compilations == 1
        assert second.compilations == 0
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_run_does_not_replan(self, graph, config):
        session = InferenceSession(graph, config)
        session.run(3)
        session.run(5)
        session.run(2)
        assert session.compilations == 1


class TestEquivalence:
    """The serving path must be bit-identical to the one-shot pipeline."""

    @pytest.mark.parametrize("iterations", [1, 7, 20, 25])
    def test_results_match_direct_path(self, graph, config, iterations):
        session = InferenceSession(graph, config, cache=PlanCache())
        batch = session.run(iterations)
        direct = direct_batch(graph, config, iterations)
        assert batch.iterations == direct.iterations
        assert batch.analytic_makespan == direct.analytic_makespan
        assert batch.realized_makespan == direct.realized_makespan
        assert batch.stats == direct.stats
        assert batch.energy == direct.energy
        assert batch.cache_spills == direct.cache_spills
        assert batch.max_lateness == direct.max_lateness

    def test_disk_loaded_plan_executes_identically(self, graph, config, tmp_path):
        # compile + persist
        cache = PlanCache(capacity=2, disk_dir=tmp_path)
        InferenceSession(graph, config, cache=cache).run(5)
        # new "process": hydrate the plan from disk only
        cold_cache = PlanCache(capacity=2, disk_dir=tmp_path)
        session = InferenceSession(graph, config, cache=cold_cache)
        batch = session.run(5)
        assert session.compilations == 0  # never ran the planner
        assert cold_cache.stats.disk_hits == 1
        direct = direct_batch(graph, config, 5)
        assert batch.realized_makespan == direct.realized_makespan
        assert batch.stats == direct.stats
        assert batch.energy == direct.energy

    def test_total_time_matches_plan(self, graph, config):
        session = InferenceSession(graph, config)
        reference = ParaConv(config, allocator_name="dp").run(graph)
        assert session.total_time(50) == reference.total_time(50)

    def test_repeat_batches_are_deterministic(self, graph, config):
        session = InferenceSession(graph, config)
        a = session.run(6)
        b = session.run(6)
        assert a.realized_makespan == b.realized_makespan
        assert a.stats == b.stats


class TestRunValidation:
    """Regression: run() must reject non-positive iteration counts."""

    @pytest.mark.parametrize("iterations", [0, -1, -50])
    def test_non_positive_iterations_raise(self, graph, config, iterations):
        session = InferenceSession(graph, config)
        with pytest.raises(ValueError):
            session.run(iterations)
        # The rejected call must not have compiled or executed anything.
        assert session.compilations == 0
        assert session.last_trace is None

    def test_session_still_usable_after_rejection(self, graph, config):
        session = InferenceSession(graph, config)
        with pytest.raises(ValueError):
            session.run(0)
        batch = session.run(2)
        assert batch.iterations == 2


class TestKernelOrderValidation:
    def test_unknown_kernel_order_rejected_at_construction(self, graph, config):
        from repro.compiler import PipelineConfigError

        with pytest.raises(PipelineConfigError, match="lpt, topological"):
            InferenceSession(graph, config, kernel_order="bogus")

    def test_known_kernel_order_compiles(self, graph, config):
        session = InferenceSession(graph, config, kernel_order="lpt")
        direct = ParaConv(config, kernel_order="lpt").run(graph)
        assert session.plan.total_time() == direct.total_time()


class TestBatchResult:
    def test_throughputs(self, graph, config):
        session = InferenceSession(graph, config)
        batch = session.run(10)
        assert batch.sim_throughput == pytest.approx(
            10 / batch.realized_makespan
        )
        assert batch.wall_throughput > 0.0

    def test_summary_mentions_state(self, graph, config):
        cache = PlanCache()
        compiled = InferenceSession(graph, config, cache=cache)
        compiled.compile()
        assert "compiled" in compiled.summary()
        warm = InferenceSession(graph.copy(), config, cache=cache)
        warm.compile()
        assert "cached" in warm.summary()

    def test_executor_is_reused(self, graph, config):
        session = InferenceSession(graph, config)
        session.run(2)
        first = session._executor
        session.run(2)
        assert session._executor is first
        assert isinstance(first, ScheduleExecutor)


class TestAllocatorSpecIdentity:
    """A session's allocator is the registry name it was given."""

    def test_dp_spec_is_untouched(self, graph, config):
        from repro.runtime.session import InferenceSession

        session = InferenceSession(graph, config, allocator="dp")
        assert session.allocator == "dp"

    def test_session_rejects_unknown_spec(self, graph, config):
        from repro.runtime.session import InferenceSession

        for spec in ("annealed", "anneal:2000", "dp:100"):
            with pytest.raises(ValueError):
                InferenceSession(graph, config, allocator=spec)

    def test_session_serves_search_plans(self, graph, config):
        """A plan from a non-default allocator (the greedy search) is
        served as compiled."""
        from repro.runtime.session import InferenceSession

        session = InferenceSession(graph, config, allocator="greedy")
        assert session.allocator == "greedy"
        result = session.run(iterations=5)
        assert result.iterations == 5
        assert session.plan.allocation.method == "greedy"
