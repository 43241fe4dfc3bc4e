"""SharedPlanStore: content addressing, atomicity, concurrent writers."""

from __future__ import annotations

import threading

import pytest

from repro.core.paraconv import ParaConv
from repro.fleet.store import SharedPlanStore
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import PlanKey, plan_key_for, plan_to_dict


@pytest.fixture(scope="module")
def plan_and_key():
    config = PimConfig(num_pes=16)
    graph = synthetic_benchmark("cat")
    plan = ParaConv(config).run(graph)
    key = plan_key_for(graph, config, "dp")
    return plan, key


class TestRoundTrip:
    def test_put_get_round_trip(self, tmp_path, plan_and_key):
        plan, key = plan_and_key
        store = SharedPlanStore(tmp_path / "store")
        digest = store.put(key, plan)
        assert digest == key.digest
        assert key in store and digest in store
        assert len(store) == 1
        hydrated = store.get(key)
        assert hydrated is not None
        assert plan_to_dict(hydrated) == plan_to_dict(plan)
        assert store.stats.writes == 1
        assert store.stats.read_hits == 1

    def test_absent_is_none(self, tmp_path):
        store = SharedPlanStore(tmp_path / "store")
        assert store.get("0" * 64) is None
        assert store.stats.reads == 1
        assert store.stats.read_hits == 0

    def test_corrupt_payload_degrades_to_miss(self, tmp_path, plan_and_key):
        plan, key = plan_and_key
        store = SharedPlanStore(tmp_path / "store")
        store.put(key, plan)
        (store.directory / f"{key.digest}.json").write_text("{ torn")
        assert store.get(key) is None
        assert store.stats.corrupt_payloads == 1

    def test_directory_created_eagerly(self, tmp_path):
        target = tmp_path / "a" / "b" / "store"
        SharedPlanStore(target)
        assert target.is_dir()

    def test_describe_mentions_counts(self, tmp_path, plan_and_key):
        plan, key = plan_and_key
        store = SharedPlanStore(tmp_path / "store")
        store.put(key, plan)
        assert "1 plans" in store.describe()


class TestSharedCaches:
    def test_compile_once_warm_everywhere(self, tmp_path, plan_and_key):
        """A plan published through cache A is a disk hit for cache B."""
        plan, key = plan_and_key
        store = SharedPlanStore(tmp_path / "store")
        cache_a = store.open_cache()
        cache_b = store.open_cache()
        compiles = 0

        def compile_fn():
            nonlocal compiles
            compiles += 1
            return plan

        cache_a.get_or_compile(key, plan.graph, compile_fn)
        cache_b.get_or_compile(key, plan.graph, compile_fn)
        assert compiles == 1
        assert cache_b.stats.disk_hits == 1
        assert cache_b.stats.misses == 0

    def test_no_tmp_litter_after_writes(self, tmp_path, plan_and_key):
        plan, key = plan_and_key
        store = SharedPlanStore(tmp_path / "store")
        for _ in range(5):
            store.put(key, plan)
        leftovers = [
            p.name for p in store.directory.iterdir()
            if p.suffix == ".tmp"
        ]
        assert leftovers == []
        assert len(store) == 1


class TestConcurrentWriters:
    def test_threaded_writers_publish_whole_payloads(
        self, tmp_path, plan_and_key
    ):
        """Many concurrent writers of the same digest never publish a
        torn artifact: the final file always hydrates."""
        plan, key = plan_and_key
        store = SharedPlanStore(tmp_path / "store")
        errors = []

        def hammer():
            try:
                for _ in range(10):
                    store.put(key, plan)
                    assert store.get(key) is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [threading.Thread(target=hammer) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert store.stats.corrupt_payloads == 0
        hydrated = store.get(key)
        assert plan_to_dict(hydrated) == plan_to_dict(plan)

    def test_two_store_handles_same_directory(self, tmp_path, plan_and_key):
        plan, key = plan_and_key
        first = SharedPlanStore(tmp_path / "store")
        second = SharedPlanStore(tmp_path / "store")
        first.put(key, plan)
        assert second.get(key) is not None
        assert len(second) == 1

    def test_accepts_raw_digest_keys(self, tmp_path, plan_and_key):
        plan, key = plan_and_key
        store = SharedPlanStore(tmp_path / "store")
        store.put(key.digest, plan)
        assert store.get(key.digest) is not None
        assert isinstance(key, PlanKey)
