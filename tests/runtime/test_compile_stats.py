"""compile_stats threading through the serving stack: sessions, the plan
cache and the metrics registry."""

import pytest

from repro.pim.config import PimConfig
from repro.runtime.metrics import MetricsRegistry, record_compile_stats
from repro.runtime.plan_cache import PlanCache, plan_key_for
from repro.runtime.session import InferenceSession


@pytest.fixture
def machine():
    return PimConfig(num_pes=4, iterations=100)


class TestSessionStats:
    def test_compile_exposes_stats(self, figure2_graph, machine):
        session = InferenceSession(figure2_graph, machine)
        session.compile()
        stats = session.last_compile_stats
        assert stats is not None
        assert stats.best_width == session.plan.group_width
        assert "dp-allocate" in stats.pass_seconds
        assert session.plan.compile_stats is stats

    def test_cache_hit_leaves_no_stats(self, figure2_graph, machine):
        cache = PlanCache()
        first = InferenceSession(figure2_graph, machine, cache=cache)
        first.compile()
        assert first.last_compile_stats is not None
        second = InferenceSession(figure2_graph, machine, cache=cache)
        second.compile()
        assert second.compilations == 0
        assert second.last_compile_stats is None
        assert "served from cache" in second.explain_compile()

    def test_explain_compile_renders_passes(self, figure2_graph, machine):
        session = InferenceSession(figure2_graph, machine)
        session.compile()
        text = session.explain_compile()
        assert "dp-allocate" in text
        assert "widths explored" in text


class TestMetricsRecording:
    def test_session_records_into_registry(self, figure2_graph, machine):
        registry = MetricsRegistry()
        session = InferenceSession(figure2_graph, machine, metrics=registry)
        session.compile()
        snap = registry.snapshot()
        assert snap["counters"]["compile.widths_explored"] >= 1
        assert "compile.widths_pruned" in snap["counters"]
        assert any(
            name.startswith("compile.pass.dp-allocate")
            for name in snap["histograms"]
        )
        assert snap["histograms"]["compile.total.seconds"]["count"] == 1

    def test_none_stats_are_a_noop(self):
        registry = MetricsRegistry()
        record_compile_stats(registry, None)
        assert registry.snapshot() == {
            "counters": {}, "gauges": {}, "histograms": {}
        }

    def test_cache_hit_records_nothing(self, figure2_graph, machine):
        cache = PlanCache()
        InferenceSession(figure2_graph, machine, cache=cache).compile()
        registry = MetricsRegistry()
        hit = InferenceSession(
            figure2_graph, machine, cache=cache, metrics=registry
        )
        hit.compile()
        assert registry.snapshot()["counters"] == {}


class TestCacheStatsAccumulation:
    def test_pass_seconds_accumulate_per_compile(self, figure2_graph, machine):
        cache = PlanCache()
        InferenceSession(figure2_graph, machine, cache=cache).compile()
        breakdown = cache.stats.pass_seconds
        assert "dp-allocate" in breakdown
        assert all(seconds >= 0.0 for seconds in breakdown.values())
        # A cache hit adds nothing.
        before = dict(breakdown)
        InferenceSession(figure2_graph, machine, cache=cache).compile()
        assert cache.stats.pass_seconds == before

    def test_as_dict_has_sorted_pass_keys(self, figure2_graph, machine):
        cache = PlanCache()
        InferenceSession(figure2_graph, machine, cache=cache).compile()
        payload = cache.stats.as_dict()
        assert list(payload["pass_seconds"]) == sorted(payload["pass_seconds"])

    def test_disk_hydrated_plans_contribute_nothing(
        self, figure2_graph, machine, tmp_path
    ):
        warm = PlanCache(disk_dir=tmp_path)
        InferenceSession(figure2_graph, machine, cache=warm).compile()
        cold = PlanCache(disk_dir=tmp_path)
        key = plan_key_for(figure2_graph, machine)
        plan = cold.get(key, figure2_graph)
        assert plan is not None
        assert plan.compile_stats is None  # not serialized, by design
        assert cold.stats.pass_seconds == {}
