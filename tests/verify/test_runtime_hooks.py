"""Verification hooks in the serving runtime (session + plan cache)."""

import json

import pytest

from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import PlanCache, plan_key_for
from repro.runtime.session import InferenceSession
from repro.verify.violations import VerificationError


@pytest.fixture()
def graph():
    return synthetic_benchmark("cat")


@pytest.fixture()
def config():
    return PimConfig(num_pes=16)


def tamper(disk_dir, graph, config):
    """Corrupt the on-disk plan's profit accounting in place."""
    digest = plan_key_for(graph, config).digest
    path = disk_dir / f"{digest}.json"
    payload = json.loads(path.read_text())
    payload["allocation"]["total_delta_r"] += 7
    path.write_text(json.dumps(payload))
    return path


class TestSessionVerify:
    def test_verified_compile_succeeds(self, graph, config):
        session = InferenceSession(graph, config, verify=True)
        plan = session.compile()
        assert session.is_compiled
        assert plan.period > 0

    def test_verified_session_still_serves(self, graph, config):
        session = InferenceSession(graph, config, verify=True)
        batch = session.run(iterations=3)
        assert batch.iterations == 3

    def test_corrupt_cached_plan_raises(self, graph, config, tmp_path):
        InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path)
        ).compile()
        tamper(tmp_path, graph, config)
        # a fresh trusting cache serves the corrupt plan; verify= catches it
        session = InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path), verify=True
        )
        with pytest.raises(VerificationError) as excinfo:
            session.compile()
        assert any(
            v.check == "allocation" for v in excinfo.value.report.errors()
        )

    def test_unverified_session_does_not_raise(self, graph, config, tmp_path):
        """Without verify=, the hook stays out of the serving path."""
        InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path)
        ).compile()
        tamper(tmp_path, graph, config)
        session = InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path)
        )
        session.compile()  # trusts the cache: no exception by design
        assert session.is_compiled


class TestPlanCacheVerifyOnLoad:
    def test_tampered_disk_plan_degrades_to_miss(
        self, graph, config, tmp_path
    ):
        InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path)
        ).compile()
        tamper(tmp_path, graph, config)
        cache = PlanCache(disk_dir=tmp_path, verify_on_load=True)
        key = plan_key_for(graph, config)
        assert cache.get(key, graph) is None
        assert cache.stats.verify_failures == 1
        assert cache.stats.misses == 1
        assert cache.stats.verify_failures == cache.stats.as_dict()[
            "verify_failures"
        ]

    def test_session_recompiles_over_tampered_cache(
        self, graph, config, tmp_path
    ):
        InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path)
        ).compile()
        tamper(tmp_path, graph, config)
        cache = PlanCache(disk_dir=tmp_path, verify_on_load=True)
        session = InferenceSession(graph, config, cache=cache, verify=True)
        session.compile()
        assert session.compilations == 1  # recompiled, not served corrupt
        assert cache.stats.verify_failures == 1
        # and the recompile healed the disk tier
        healthy = PlanCache(disk_dir=tmp_path, verify_on_load=True)
        assert healthy.get(plan_key_for(graph, config), graph) is not None

    def test_untampered_disk_plan_verifies_and_hits(
        self, graph, config, tmp_path
    ):
        InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path)
        ).compile()
        cache = PlanCache(disk_dir=tmp_path, verify_on_load=True)
        assert cache.get(plan_key_for(graph, config), graph) is not None
        assert cache.stats.verify_failures == 0
        assert cache.stats.disk_hits == 1

    def test_memory_tier_not_revalidated(self, graph, config, tmp_path):
        """Second lookup is a pure memory hit (no verify cost)."""
        InferenceSession(
            graph, config, cache=PlanCache(disk_dir=tmp_path)
        ).compile()
        cache = PlanCache(disk_dir=tmp_path, verify_on_load=True)
        key = plan_key_for(graph, config)
        cache.get(key, graph)
        cache.get(key, graph)
        assert cache.stats.disk_hits == 1
        assert cache.stats.hits == 2
