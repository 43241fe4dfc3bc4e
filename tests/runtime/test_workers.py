"""Warmup: cache population, determinism, reporting."""

from __future__ import annotations

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.runtime.plan_cache import PlanCache, plan_key_for
from repro.runtime.workers import warm_cache

NAMES = ["cat", "car", "flower"]


def loader(name):
    return synthetic_benchmark(name)


class TestWarmCache:
    def test_populates_every_workload(self, config):
        cache = PlanCache(capacity=8)
        report = warm_cache(NAMES, config, cache, graph_loader=loader)
        assert len(report.entries) == 3
        assert report.compiled == 3 and report.from_cache == 0
        for name in NAMES:
            key = plan_key_for(loader(name), config)
            assert key in cache

    def test_second_warmup_is_all_cache_hits(self, config):
        cache = PlanCache(capacity=8)
        warm_cache(NAMES, config, cache, graph_loader=loader)
        report = warm_cache(NAMES, config, cache, graph_loader=loader)
        assert report.compiled == 0
        assert report.from_cache == 3

    def test_warm_plans_equal_direct_compile(self, config):
        cache = PlanCache(capacity=8)
        warm_cache(NAMES, config, cache, graph_loader=loader)
        for name in NAMES:
            graph = loader(name)
            warm = cache.get(plan_key_for(graph, config), graph)
            direct = ParaConv(config).run(loader(name))
            assert warm is not None
            assert warm.total_time() == direct.total_time()
            assert warm.schedule.placements == direct.schedule.placements
            assert warm.schedule.retiming == direct.schedule.retiming

    def test_order_preserved_and_facts_reported(self, config):
        cache = PlanCache(capacity=8)
        report = warm_cache(NAMES, config, cache, graph_loader=loader)
        assert [e.workload for e in report.entries] == NAMES
        for entry in report.entries:
            assert entry.seconds >= 0.0
            assert entry.period > 0
            assert entry.num_groups * entry.group_width <= config.num_pes
            assert len(entry.digest) == 64

    def test_unknown_workload_raises(self, config):
        cache = PlanCache(capacity=8)
        with pytest.raises(Exception):
            warm_cache(["no-such-workload"], config, cache)

    def test_warmup_persists_to_disk(self, config, tmp_path):
        cache = PlanCache(capacity=8, disk_dir=tmp_path)
        warm_cache(NAMES, config, cache, graph_loader=loader)
        assert len(cache.disk_digests()) == 3

    def test_render_smoke(self, config):
        cache = PlanCache(capacity=8)
        report = warm_cache(NAMES, config, cache, graph_loader=loader)
        text = report.render()
        for name in NAMES:
            assert name in text
        assert "warmed 3 workloads" in text
