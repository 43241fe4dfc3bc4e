"""Plan-cache semantics: accounting, LRU order, disk tier, invalidation."""

from __future__ import annotations

import json

import pytest

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.runtime.plan_cache import (
    PlanCache,
    PlanCacheError,
    PlanKey,
    plan_from_dict,
    plan_key_for,
    plan_to_dict,
)
from repro.runtime.session import InferenceSession


def compile_plan(graph, config, allocator="dp"):
    return ParaConv(config, allocator_name=allocator).run(graph)


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
class TestPlanKey:
    def test_same_inputs_same_digest(self, graph, config):
        a = plan_key_for(graph, config)
        b = plan_key_for(graph.copy(), config)
        assert a == b
        assert a.digest == b.digest

    def test_every_component_changes_the_key(self, graph, other_graph, config):
        base = plan_key_for(graph, config)
        variants = [
            plan_key_for(other_graph, config),
            plan_key_for(graph, config.with_pes(64)),
            plan_key_for(graph, config, allocator="greedy"),
            plan_key_for(graph, config, kernel_order="lpt"),
            plan_key_for(graph, config, liveness_aware=True),
        ]
        digests = {base.digest} | {v.digest for v in variants}
        assert len(digests) == len(variants) + 1, "fingerprint collision"

    def test_graph_mutation_invalidates(self, graph, config):
        before = plan_key_for(graph, config)
        mutated = graph.copy()
        edge = mutated.edges()[0]
        # change one intermediate-result size: different content hash
        mutated._edges[edge.key] = type(edge)(
            producer=edge.producer,
            consumer=edge.consumer,
            size_bytes=edge.size_bytes + 1,
            profit_cache=edge.profit_cache,
            profit_edram=edge.profit_edram,
        )
        assert plan_key_for(mutated, config).digest != before.digest

    def test_name_does_not_matter(self, graph, config):
        renamed = graph.copy(name="renamed")
        assert plan_key_for(renamed, config) == plan_key_for(graph, config)


# ----------------------------------------------------------------------
# hit/miss accounting + LRU
# ----------------------------------------------------------------------
class TestAccounting:
    def test_hit_miss_counters(self, graph, config):
        cache = PlanCache(capacity=4)
        key = plan_key_for(graph, config)
        assert cache.get(key, graph) is None
        assert (cache.stats.hits, cache.stats.misses) == (0, 1)
        plan = compile_plan(graph, config)
        cache.put(key, plan)
        assert cache.get(key, graph) is plan
        assert cache.get(key, graph) is plan
        assert (cache.stats.hits, cache.stats.misses) == (2, 1)
        assert cache.stats.hit_rate == pytest.approx(2 / 3)

    def test_get_or_compile_compiles_once(self, graph, config):
        cache = PlanCache(capacity=4)
        key = plan_key_for(graph, config)
        calls = []

        def build():
            calls.append(1)
            return compile_plan(graph, config)

        first = cache.get_or_compile(key, graph, build)
        second = cache.get_or_compile(key, graph, build)
        assert first is second
        assert len(calls) == 1
        assert cache.stats.compile_seconds > 0.0

    def test_lru_eviction_order(self, graph, config):
        cache = PlanCache(capacity=2)
        plan = compile_plan(graph, config)
        k1 = PlanKey(graph.fingerprint(), "c1")
        k2 = PlanKey(graph.fingerprint(), "c2")
        k3 = PlanKey(graph.fingerprint(), "c3")
        cache.put(k1, plan)
        cache.put(k2, plan)
        assert cache.get(k1, graph) is plan  # promote k1: k2 is now LRU
        cache.put(k3, plan)  # evicts k2
        assert cache.stats.evictions == 1
        assert k2 not in cache
        assert k1 in cache and k3 in cache
        assert cache.keys() == [k1.digest, k3.digest]

    def test_capacity_must_be_positive(self):
        with pytest.raises(PlanCacheError):
            PlanCache(capacity=0)


# ----------------------------------------------------------------------
# serialization + disk tier
# ----------------------------------------------------------------------
class TestDiskTier:
    def test_plan_round_trip_equals(self, graph, config):
        plan = compile_plan(graph, config)
        restored = plan_from_dict(json.loads(json.dumps(plan_to_dict(plan))))
        assert restored.period == plan.period
        assert restored.max_retiming == plan.max_retiming
        assert restored.group_width == plan.group_width
        assert restored.num_groups == plan.num_groups
        assert restored.allocation == plan.allocation
        assert restored.case_histogram == plan.case_histogram
        assert restored.schedule.retiming == plan.schedule.retiming
        assert restored.schedule.placements == plan.schedule.placements
        assert restored.schedule.transfer_times == plan.schedule.transfer_times
        assert restored.config == plan.config
        assert restored.graph.fingerprint() == plan.graph.fingerprint()
        assert restored.total_time() == plan.total_time()

    def test_disk_round_trip_through_cache(self, graph, config, tmp_path):
        cache = PlanCache(capacity=4, disk_dir=tmp_path / "plans")
        key = plan_key_for(graph, config)
        plan = compile_plan(graph, config)
        cache.put(key, plan)
        assert cache.stats.disk_writes == 1
        assert cache.disk_digests() == [key.digest]

        # a fresh cache (new process) hydrates from disk
        fresh = PlanCache(capacity=4, disk_dir=tmp_path / "plans")
        restored = fresh.get(key, graph)
        assert restored is not None
        assert fresh.stats.disk_hits == 1
        assert restored.total_time() == plan.total_time()
        assert restored.schedule.placements == plan.schedule.placements
        # hydrated plans are promoted to memory: second get is a pure hit
        assert fresh.get(key, graph) is restored
        assert fresh.stats.disk_hits == 1

    def test_eviction_keeps_disk_copy(self, graph, config, tmp_path):
        cache = PlanCache(capacity=1, disk_dir=tmp_path)
        plan = compile_plan(graph, config)
        k1 = plan_key_for(graph, config)
        k2 = plan_key_for(graph, config.with_pes(64))
        cache.put(k1, plan)
        cache.put(k2, compile_plan(graph, config.with_pes(64)))  # evicts k1
        assert cache.stats.evictions == 1
        assert cache.get(k1, graph) is not None  # served from disk, not recompiled
        assert cache.stats.disk_hits == 1

    def test_corrupt_disk_entry_is_a_miss(self, graph, config, tmp_path):
        cache = PlanCache(capacity=2, disk_dir=tmp_path)
        key = plan_key_for(graph, config)
        (tmp_path / f"{key.digest}.json").write_text("{not json")
        assert cache.get(key, graph) is None
        assert cache.stats.misses == 1

    def test_clear_disk(self, graph, config, tmp_path):
        cache = PlanCache(capacity=2, disk_dir=tmp_path)
        cache.put(plan_key_for(graph, config), compile_plan(graph, config))
        cache.clear(memory_only=False)
        assert len(cache) == 0
        assert cache.disk_digests() == []

    def test_bad_version_rejected(self, graph, config):
        payload = plan_to_dict(compile_plan(graph, config))
        payload["format_version"] = 99
        with pytest.raises(PlanCacheError):
            plan_from_dict(payload)


# ----------------------------------------------------------------------
# invalidation: every fingerprint component routes to a distinct plan
# ----------------------------------------------------------------------
def test_cache_isolates_configurations(graph, config):
    cache = PlanCache(capacity=8)
    key16 = plan_key_for(graph, config)
    key64 = plan_key_for(graph, config.with_pes(64))
    plan16 = cache.get_or_compile(key16, graph, lambda: compile_plan(graph, config))
    plan64 = cache.get_or_compile(
        key64, graph, lambda: compile_plan(graph, config.with_pes(64))
    )
    assert plan16.config.num_pes == 16
    assert plan64.config.num_pes == 64
    assert cache.get(key16, graph) is plan16
    assert cache.get(key64, graph) is plan64


# ----------------------------------------------------------------------
# shared disk tier: many caches (processes) over one directory
# ----------------------------------------------------------------------
class TestSharedDiskDir:
    def test_second_cache_hits_disk_without_compiling(
        self, graph, config, tmp_path
    ):
        shared = tmp_path / "shared"
        cache_a = PlanCache(capacity=4, disk_dir=shared)
        cache_b = PlanCache(capacity=4, disk_dir=shared)
        compiles = 0

        def compile_fn():
            nonlocal compiles
            compiles += 1
            return compile_plan(graph, config)

        key = plan_key_for(graph, config)
        cache_a.get_or_compile(key, graph, compile_fn)
        cache_b.get_or_compile(key, graph, compile_fn)
        assert compiles == 1
        assert cache_b.stats.misses == 0
        assert cache_b.stats.disk_hits == 1

    def test_concurrent_writers_never_publish_torn_files(
        self, graph, config, tmp_path
    ):
        """Two caches hammering the same key through one disk dir must
        always leave a hydratable artifact (atomic unique-temp rename)."""
        import threading

        shared = tmp_path / "shared"
        caches = [PlanCache(capacity=2, disk_dir=shared) for _ in range(2)]
        key = plan_key_for(graph, config)
        plan = compile_plan(graph, config)
        errors = []

        def hammer(cache):
            try:
                for _ in range(15):
                    cache.put(key, plan)
                    loaded = PlanCache(capacity=2, disk_dir=shared).get(key, graph)
                    assert loaded is not None
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(cache,))
            for cache in caches
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert (shared / f"{key.digest}.json").exists()
        restored = PlanCache(capacity=2, disk_dir=shared).get(key, graph)
        assert plan_to_dict(restored) == plan_to_dict(plan)

    def test_no_temp_litter_after_concurrent_writes(
        self, graph, config, tmp_path
    ):
        shared = tmp_path / "shared"
        cache = PlanCache(capacity=2, disk_dir=shared)
        key = plan_key_for(graph, config)
        plan = compile_plan(graph, config)
        for _ in range(5):
            cache.put(key, plan)
        stray = [
            p.name for p in shared.iterdir()
            if not p.name.endswith(".json")
        ]
        assert stray == []


# ----------------------------------------------------------------------
# hydration against the graph the caller holds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_graph_hydration_matches_standalone(name, config):
    """Skipping the embedded graph changes nothing but the graph's identity."""
    graph = load_workload(name)
    compiled = compile_plan(graph, config)
    payload = json.loads(json.dumps(plan_to_dict(compiled)))
    held = plan_from_dict(payload, graph)
    standalone = plan_from_dict(payload)
    assert held.graph is graph
    assert held.schedule.graph is graph
    assert standalone.graph is not graph
    assert json.dumps(plan_to_dict(held)) == json.dumps(plan_to_dict(standalone))
    assert json.dumps(plan_to_dict(held)) == json.dumps(plan_to_dict(compiled))


class TestHeldGraph:
    def test_disk_hit_is_built_on_the_held_graph(self, graph, config, tmp_path):
        key = plan_key_for(graph, config)
        PlanCache(disk_dir=tmp_path).put(key, compile_plan(graph, config))
        held = graph.copy()
        plan = PlanCache(disk_dir=tmp_path).get(key, held)
        assert plan is not None
        assert plan.graph is held

    def test_session_plan_graph_is_session_graph(self, graph, config, tmp_path):
        InferenceSession(graph, config, cache=PlanCache(disk_dir=tmp_path)).compile()
        session = InferenceSession(
            graph.copy(), config, cache=PlanCache(disk_dir=tmp_path)
        )
        session.compile()
        assert session.compilations == 0
        assert session.cache.stats.disk_hits == 1
        assert session.plan.graph is session.graph

    def test_graph_that_is_not_the_keys_raises(
        self, graph, other_graph, config, tmp_path
    ):
        cache = PlanCache(disk_dir=tmp_path)
        key = plan_key_for(graph, config)
        cache.put(key, compile_plan(graph, config))
        for lookup in (
            lambda: cache.get(key, other_graph),
            lambda: cache.get_or_compile(
                key, other_graph, lambda: pytest.fail("compiled")
            ),
        ):
            with pytest.raises(PlanCacheError) as excinfo:
                lookup()
            assert graph.fingerprint() in str(excinfo.value)
            assert other_graph.fingerprint() in str(excinfo.value)
        assert (cache.stats.hits, cache.stats.misses) == (0, 0)


# ----------------------------------------------------------------------
# malformed payloads: a miss in the cache, a typed error when parsed
# ----------------------------------------------------------------------
#: Disk contents that are not a plan, as bytes.
MALFORMED_FILES = {
    "not-utf8": b"\xff\xfe\x00\x01plan",
    "list": b"[]",
    "null": b"null",
    "schedule-list": b'{"format_version": 1, "schedule": []}',
}


@pytest.mark.parametrize(
    "raw", list(MALFORMED_FILES.values()), ids=list(MALFORMED_FILES)
)
def test_malformed_disk_payload_is_a_miss_then_recompiles(
    raw, graph, config, tmp_path
):
    cache = PlanCache(capacity=2, disk_dir=tmp_path)
    key = plan_key_for(graph, config)
    path = tmp_path / f"{key.digest}.json"
    path.write_bytes(raw)
    assert cache.get(key, graph) is None
    assert (cache.stats.misses, cache.stats.disk_hits) == (1, 0)
    compiles = []

    def build():
        compiles.append(1)
        return compile_plan(graph, config)

    plan = cache.get_or_compile(key, graph, build)
    assert compiles == [1]
    assert cache.stats.disk_writes == 1
    assert json.loads(path.read_text()) == json.loads(json.dumps(plan_to_dict(plan)))
    healed = PlanCache(capacity=2, disk_dir=tmp_path)
    assert healed.get(key, graph) is not None
    assert healed.stats.disk_hits == 1


def _with(payload, section, value):
    return {**payload, section: value}


#: A plan payload, or one of its sections, of the wrong shape.
WRONG_SHAPES = {
    "list": lambda valid: [],
    "null": lambda valid: None,
    "string": lambda valid: "plan",
    "schedule-list": lambda valid: {"format_version": 1, "schedule": []},
    "config-list": lambda valid: _with(valid, "config", []),
    "allocation-null": lambda valid: _with(valid, "allocation", None),
    "placements-object": lambda valid: _with(
        valid, "allocation", _with(valid["allocation"], "placements", {"a": 1})
    ),
    "kernel-ints": lambda valid: _with(
        valid, "schedule", _with(valid["schedule"], "kernel", [1, 2])
    ),
    "retiming-list": lambda valid: _with(
        valid, "schedule", _with(valid["schedule"], "retiming", [])
    ),
    "case-histogram-list": lambda valid: _with(valid, "case_histogram", []),
}


@pytest.mark.parametrize("held", [False, True], ids=["standalone", "held-graph"])
@pytest.mark.parametrize(
    "make", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES)
)
def test_wrong_shape_raises_plan_cache_error(make, held, graph, config):
    valid = json.loads(json.dumps(plan_to_dict(compile_plan(graph, config))))
    with pytest.raises(PlanCacheError):
        plan_from_dict(make(valid), graph if held else None)


def test_wrong_shape_embedded_graph_raises_when_parsed(graph, config):
    valid = json.loads(json.dumps(plan_to_dict(compile_plan(graph, config))))
    payload = _with(valid, "schedule", _with(valid["schedule"], "graph", []))
    with pytest.raises(PlanCacheError):
        plan_from_dict(payload)
    # a held graph stands in for the embedded copy, which is not parsed
    assert plan_from_dict(payload, graph).graph is graph
