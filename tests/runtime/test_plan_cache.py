"""Plan-cache semantics: accounting, LRU order, disk tier, invalidation."""

from __future__ import annotations

import json
from dataclasses import replace

import pytest

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.graph.io import graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.pim.memory import Placement
from repro.runtime.plan_cache import (
    GRAPH_DIR,
    PlanCache,
    PlanCacheError,
    PlanKey,
    plan_from_dict,
    plan_key_for,
    plan_to_dict,
    read_plan,
    write_plan,
)
from repro.runtime.session import InferenceSession
from repro.sim.executor import ScheduleExecutor


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
        restored = plan_from_dict(
            json.loads(json.dumps(plan_to_dict(plan))), graph.copy()
        )
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
        assert (tmp_path / GRAPH_DIR).is_dir()
        cache.clear(memory_only=False)
        assert len(cache) == 0
        assert cache.disk_digests() == []
        assert not (tmp_path / GRAPH_DIR).exists()

    def test_disk_digests_list_plans_only(self, graph, other_graph, config, tmp_path):
        cache = PlanCache(capacity=2, disk_dir=tmp_path)
        keys = [plan_key_for(g, config) for g in (graph, other_graph)]
        for key, g in zip(keys, (graph, other_graph)):
            cache.put(key, compile_plan(g, config))
        graph_files = sorted(p.stem for p in (tmp_path / GRAPH_DIR).glob("*.json"))
        assert graph_files == sorted(
            [graph.fingerprint(), other_graph.fingerprint()]
        )
        assert cache.disk_digests() == sorted(key.digest for key in keys)

    def test_second_put_does_not_rewrite_the_graph_file(
        self, graph, config, tmp_path
    ):
        cache = PlanCache(capacity=2, disk_dir=tmp_path)
        cache.put(plan_key_for(graph, config), compile_plan(graph, config))
        graph_file = tmp_path / GRAPH_DIR / f"{graph.fingerprint()}.json"
        stamp = graph_file.stat().st_mtime_ns, graph_file.stat().st_ino
        other = config.with_pes(64)
        cache.put(plan_key_for(graph, other), compile_plan(graph, other))
        assert len(cache.disk_digests()) == 2
        assert (graph_file.stat().st_mtime_ns, graph_file.stat().st_ino) == stamp

    def test_placements_that_disagree_are_not_written(self, graph, config):
        plan = compile_plan(graph, config)
        placements = plan.allocation.placements
        key = next(iter(placements))
        placements[key] = (
            Placement.CACHE
            if placements[key] is Placement.EDRAM
            else Placement.EDRAM
        )
        with pytest.raises(PlanCacheError, match="stores them once"):
            plan_to_dict(plan)

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
            p.name for p in shared.rglob("*")
            if p.is_file() and not p.name.endswith(".json")
        ]
        assert stray == []


# ----------------------------------------------------------------------
# hydration against the graph the caller holds
# ----------------------------------------------------------------------
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_held_graph_hydration_matches_standalone(name, config, tmp_path):
    """Reading the stored graph file changes nothing but the graph's identity."""
    graph = load_workload(name)
    compiled = compile_plan(graph, config)
    write_plan(tmp_path, "plan", compiled)
    held = read_plan(tmp_path / "plan.json", graph)
    standalone = read_plan(tmp_path / "plan.json")
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

    def test_memory_hit_is_served_on_the_session_graph(self, config):
        # The graph name is outside the fingerprint, so a renamed copy
        # hits the plan the first session compiled; it must still be
        # served on the second session's own graph.
        cache = PlanCache()
        first = InferenceSession(load_workload("cat"), config, cache=cache)
        renamed = load_workload("cat").copy(name="cat-renamed")
        second = InferenceSession(renamed, config, cache=cache)
        assert first.plan.graph is first.graph
        assert second.plan.graph is renamed
        assert second.plan.graph.name == "cat-renamed"
        assert first.plan.graph.name == "cat"
        assert (second.compilations, cache.stats.hits) == (0, 1)
        # Everything but the graph is the cached plan's own.
        assert second.plan.schedule is first.plan.schedule
        assert second.plan.allocation is first.plan.allocation
        assert second.plan == replace(first.plan, graph=renamed)
        assert second.run(4).realized_makespan == first.run(4).realized_makespan

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


def reversed_edges(graph: TaskGraph) -> TaskGraph:
    """``graph`` rebuilt with its edges inserted in reverse order."""
    rebuilt = TaskGraph(name=graph.name, period_hint=graph.period_hint)
    for op in graph.operations():
        rebuilt.add_operation(op)
    for edge in reversed(graph.edges()):
        rebuilt.add_edge(edge)
    return rebuilt


@pytest.mark.parametrize("name", ["cat", "protein", "randwired-ba-64"])
def test_hydration_does_not_depend_on_edge_insertion_order(name, config):
    """The arrays are in sorted edge order, which both graphs share.

    The simulator reads a graph's edges in insertion order (the pFIFO
    consume order), so the rebuilt graph may simulate the same plan
    differently from the original; the hydrated plan must simulate
    exactly as a plan compiled on the rebuilt graph does.
    """
    graph = load_workload(name)
    rebuilt = reversed_edges(graph)
    assert list(rebuilt.edge_keys()) != list(graph.edge_keys())
    assert rebuilt.fingerprint() == graph.fingerprint()
    compiled = compile_plan(graph, config)
    payload = json.loads(json.dumps(plan_to_dict(compiled)))
    hydrated = plan_from_dict(payload, rebuilt)
    assert hydrated.graph is rebuilt
    assert plan_to_dict(hydrated) == plan_to_dict(compiled)
    recompiled = compile_plan(rebuilt, config)
    assert plan_to_dict(recompiled) == plan_to_dict(compiled)
    executor = ScheduleExecutor(config)
    assert (
        executor.execute(hydrated, iterations=20).aggregate_signature()
        == executor.execute(recompiled, iterations=20).aggregate_signature()
    )


# ----------------------------------------------------------------------
# malformed payloads: a miss in the cache, a typed error when parsed
# ----------------------------------------------------------------------
def _with(payload, section, value):
    return {**payload, section: value}


def _schedule_with(payload, section, value):
    return _with(payload, "schedule", _with(payload["schedule"], section, value))


def _grow(payload, section):
    """``section`` of the schedule with its last entry repeated."""
    values = payload["schedule"][section]
    return _schedule_with(payload, section, values + values[-1:])


def _shrunk_finish(schedule):
    """``finish`` with the first op longer than one unit cut to one unit:
    it finishes earlier, so no dependency check can object."""
    finish = list(schedule["finish"])
    k = next(
        k for k, (s, f) in enumerate(zip(schedule["start"], finish)) if f - s > 1
    )
    finish[k] = schedule["start"][k] + 1
    return finish


def _cached(payload, indices):
    return _with(payload, "allocation", _with(payload["allocation"], "cached", indices))


def v1_payload(plan) -> dict:
    """``plan`` in the version-1 layout: an embedded graph and one record
    per edge, with the allocation's placements repeated."""
    schedule, allocation = plan.schedule, plan.allocation

    def records(values, field):
        return [
            {"producer": i, "consumer": j, field: getattr(v, "value", v)}
            for (i, j), v in values.items()
        ]

    return {
        "format_version": 1,
        "config": plan.config.to_dict(),
        "schedule": {
            "format_version": 1,
            "graph": graph_to_dict(plan.graph),
            "period": schedule.period,
            "kernel": [
                {"op_id": p.op_id, "pe": p.pe, "start": p.start, "finish": p.finish}
                for p in map(schedule.kernel.placement, schedule.kernel.op_ids)
            ],
            "retiming": {str(k): v for k, v in schedule.retiming.items()},
            "edge_retiming": records(schedule.edge_retiming, "value"),
            "placements": records(schedule.placements, "where"),
            "transfer_times": records(schedule.transfer_times, "units"),
        },
        "allocation": {
            "method": allocation.method,
            "placements": records(allocation.placements, "where"),
            "cached": [list(key) for key in allocation.cached],
            "total_delta_r": allocation.total_delta_r,
            "slots_used": allocation.slots_used,
            "capacity_slots": allocation.capacity_slots,
        },
        "case_histogram": {
            str(int(c)): n for c, n in plan.case_histogram.items()
        },
        "group_width": plan.group_width,
        "num_groups": plan.num_groups,
    }


#: A plan payload, or one of its sections, of the wrong shape; or a v2
#: payload whose arrays or indices do not fit the graph it names.
WRONG_SHAPES = {
    "list": lambda valid: [],
    "null": lambda valid: None,
    "string": lambda valid: "plan",
    "schedule-list": lambda valid: _with(valid, "schedule", []),
    "config-list": lambda valid: _with(valid, "config", []),
    "allocation-null": lambda valid: _with(valid, "allocation", None),
    "placements-object": lambda valid: _schedule_with(
        valid, "placements", {"a": 1}
    ),
    "cached-object": lambda valid: _cached(valid, {"a": 1}),
    "kernel-ints": lambda valid: _schedule_with(valid, "pe", [1, 2]),
    "retiming-list": lambda valid: _schedule_with(valid, "retiming", []),
    "retiming-object": lambda valid: _schedule_with(valid, "retiming", {}),
    "case-histogram-list": lambda valid: _with(valid, "case_histogram", []),
    "graph-unnamed": lambda valid: _with(valid, "graph", None),
    "pe-one-short": lambda valid: _schedule_with(
        valid, "pe", valid["schedule"]["pe"][:-1]
    ),
    "finish-one-long": lambda valid: _grow(valid, "finish"),
    "retiming-one-short": lambda valid: _schedule_with(
        valid, "retiming", valid["schedule"]["retiming"][:-1]
    ),
    "edge-retiming-one-long": lambda valid: _grow(valid, "edge_retiming"),
    "transfer-times-one-short": lambda valid: _schedule_with(
        valid, "transfer_times", valid["schedule"]["transfer_times"][:-1]
    ),
    "placements-one-short": lambda valid: _schedule_with(
        valid, "placements", valid["schedule"]["placements"][:-1]
    ),
    "placements-one-long": lambda valid: _schedule_with(
        valid, "placements", valid["schedule"]["placements"] + "e"
    ),
    "placement-code-unknown": lambda valid: _schedule_with(
        valid, "placements", "x" + valid["schedule"]["placements"][1:]
    ),
    "cached-index-out-of-range": lambda valid: _cached(
        valid, [len(valid["schedule"]["placements"])]
    ),
    "cached-index-negative": lambda valid: _cached(valid, [-1]),
    "cached-edge-in-edram": lambda valid: _cached(
        valid, [valid["schedule"]["placements"].index("e")]
    ),
    "foreign-fingerprint": lambda valid: _with(valid, "graph", "0" * 64),
    # Kernels that only the kernel validator rejects: the periodic
    # schedule's dependency checks read no PE and no op's own duration.
    "pe-overlap": lambda valid: _schedule_with(
        valid, "pe", [0] * len(valid["schedule"]["pe"])
    ),
    "pe-beyond-width": lambda valid: _schedule_with(
        valid, "pe", [valid["group_width"] + 5] * len(valid["schedule"]["pe"])
    ),
    "duration-wrong": lambda valid: _schedule_with(
        valid, "finish", _shrunk_finish(valid["schedule"])
    ),
}


def _wrong_shape_file(name):
    """Bytes of the ``WRONG_SHAPES[name]`` payload of a plan."""
    def make(plan):
        valid = json.loads(json.dumps(plan_to_dict(plan)))
        return json.dumps(WRONG_SHAPES[name](valid)).encode()
    return make


#: Disk contents that are not a v2 plan of the key's graph, as bytes.
MALFORMED_FILES = {
    "not-utf8": lambda plan: b"\xff\xfe\x00\x01plan",
    "list": lambda plan: b"[]",
    "null": lambda plan: b"null",
    "schedule-list": lambda plan: json.dumps(
        _with(plan_to_dict(plan), "schedule", [])
    ).encode(),
    "v1": lambda plan: json.dumps(v1_payload(plan)).encode(),
    **{
        name: _wrong_shape_file(name)
        for name in (
            "pe-one-short", "edge-retiming-one-long", "placement-code-unknown",
            "cached-index-out-of-range", "foreign-fingerprint", "pe-overlap",
            "pe-beyond-width", "duration-wrong",
        )
    },
}


@pytest.mark.parametrize(
    "make", list(MALFORMED_FILES.values()), ids=list(MALFORMED_FILES)
)
def test_malformed_disk_payload_is_a_miss_then_recompiles(
    make, graph, config, tmp_path
):
    cache = PlanCache(capacity=2, disk_dir=tmp_path)
    key = plan_key_for(graph, config)
    path = tmp_path / f"{key.digest}.json"
    path.write_bytes(make(compile_plan(graph, config)))
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
    assert json.loads(path.read_text())["format_version"] == 2
    healed = PlanCache(capacity=2, disk_dir=tmp_path)
    assert healed.get(key, graph) is not None
    assert healed.stats.disk_hits == 1


@pytest.mark.parametrize("held", [False, True], ids=["standalone", "held-graph"])
@pytest.mark.parametrize(
    "make", list(WRONG_SHAPES.values()), ids=list(WRONG_SHAPES)
)
def test_wrong_shape_raises_plan_cache_error(make, held, graph, config, tmp_path):
    plan = compile_plan(graph, config)
    write_plan(tmp_path, "plan", plan)
    valid = json.loads(json.dumps(plan_to_dict(plan)))
    assert plan_from_dict(valid, None, tmp_path / GRAPH_DIR).graph is not graph
    with pytest.raises(PlanCacheError):
        plan_from_dict(make(valid), graph if held else None, tmp_path / GRAPH_DIR)


@pytest.mark.parametrize(
    "damage",
    [
        lambda path: path.unlink(),
        lambda path: path.write_bytes(b"\xff\xfe\x00"),
        lambda path: path.write_text("{ torn"),
        lambda path: path.write_text(json.dumps(graph_to_dict(load_workload("car")))),
    ],
    ids=["missing", "not-utf8", "torn", "other-graph"],
)
def test_standalone_read_without_its_graph_file_raises(damage, graph, config, tmp_path):
    write_plan(tmp_path, "plan", compile_plan(graph, config))
    damage(tmp_path / GRAPH_DIR / f"{graph.fingerprint()}.json")
    with pytest.raises(PlanCacheError, match=graph.fingerprint()):
        read_plan(tmp_path / "plan.json")
    # a held graph needs no graph file
    assert read_plan(tmp_path / "plan.json", graph).graph is graph


def test_wrong_shape_graph_file_raises_when_read(graph, config, tmp_path):
    write_plan(tmp_path, "plan", compile_plan(graph, config))
    (tmp_path / GRAPH_DIR / f"{graph.fingerprint()}.json").write_text("[]")
    with pytest.raises(PlanCacheError):
        read_plan(tmp_path / "plan.json")
    # a held graph stands in for the graph file, which is not read
    assert read_plan(tmp_path / "plan.json", graph).graph is graph


@pytest.mark.parametrize("plan_too", [False, True], ids=["graph", "graph-and-plan"])
def test_one_recompile_heals_a_corrupt_graph_file(
    plan_too, graph, config, tmp_path, capsys
):
    """A bad graph file is dropped by the first load that rejects it, so
    the recompile that follows publishes it again."""
    from repro.fleet.store import SharedPlanStore
    from repro.runtime.__main__ import main as runtime_main

    store = SharedPlanStore(tmp_path)
    key = plan_key_for(graph, config)
    store.put(key, compile_plan(graph, config))
    for path in (tmp_path / GRAPH_DIR).glob("*.json"):
        path.write_bytes(b"\xff\xfe\x00")
    if plan_too:
        (tmp_path / f"{key.digest}.json").write_bytes(b"\xff\xfe\x00")
        # A worker's cache holds the graph: the bad plan is a miss.
        cache = store.open_cache()
        cache.get_or_compile(key, graph, lambda: compile_plan(graph, config))
        assert cache.stats.misses == 1
    else:
        # Only the standalone reader loads the graph file.
        assert store.get(key) is None
        store.put(key, compile_plan(graph, config))
    assert store.get(key) is not None
    capsys.readouterr()
    assert runtime_main(["stats", "--disk", str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "UNREADABLE" not in out and graph.name in out


def test_placements_are_stored_once(graph, config):
    """The payload keeps the schedule's placements only, so a plan whose
    allocation disagrees with its schedule cannot be written."""
    plan = compile_plan(graph, config)
    key = next(iter(plan.allocation.placements))
    flipped = dict(plan.allocation.placements)
    flipped[key] = next(p for p in type(flipped[key]) if p is not flipped[key])
    plan.allocation.placements = flipped
    with pytest.raises(PlanCacheError, match="placements"):
        plan_to_dict(plan)


def test_standalone_hydration_needs_a_graph_source(graph, config):
    payload = plan_to_dict(compile_plan(graph, config))
    with pytest.raises(PlanCacheError, match=graph.fingerprint()):
        plan_from_dict(payload)
