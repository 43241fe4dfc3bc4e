"""FleetWorker + FleetRouter: affinity, admission, shedding, failover."""

from __future__ import annotations

from collections import Counter

import pytest

import repro.cnn.workloads as cnn_workloads
from repro.fleet import __main__ as fleet_cli
from repro.fleet.router import FleetConfigurationError, FleetRouter
from repro.fleet.slo import (
    DEFAULT_SLO_POLICIES,
    FleetAdmissionError,
    SloClass,
    SloPolicy,
)
from repro.fleet.worker import FleetWorker, WorkerDeadError
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import plan_key_for
from repro.runtime.server import QueueFullError

from tests.fleet.conftest import build_fleet, drive, loader

WORKLOADS = ["cat", "car", "flower", "speech-1"]


class TestWiring:
    def test_needs_workers(self):
        with pytest.raises(FleetConfigurationError, match="at least one"):
            FleetRouter([])

    def test_duplicate_ids_rejected(self):
        shard = PimConfig(num_pes=16).partition(range(16))
        workers = [
            FleetWorker("w", shard, graph_loader=loader) for _ in range(2)
        ]
        with pytest.raises(FleetConfigurationError, match="duplicate"):
            FleetRouter(workers, graph_loader=loader)

    def test_worker_serves_logical_view(self, store):
        machine = PimConfig(num_pes=64)
        shard = machine.split(4, num_vaults=32)[2]
        worker = FleetWorker("w2", shard, store=store, graph_loader=loader)
        assert worker.partition.is_partition
        assert not worker.serving_config.has_mask
        assert worker.serving_config.num_pes == 16
        assert worker.num_vaults == 8

    def test_advance_to_is_monotone(self, store):
        router = build_fleet(store, num_workers=2)
        router.advance_to(10)
        router.advance_to(5)
        assert router.now_units == 10


class TestAffinityRouting:
    def test_same_workload_same_worker(self, store):
        router = build_fleet(store)
        owner = router.worker_for("cat")
        for _ in range(5):
            assert router.worker_for("cat") is owner

    def test_affinity_key_is_plan_digest(self, store):
        """Requests hash on the exact key the shard's plan cache uses."""
        router = build_fleet(store)
        drive(router, ["cat"], 4)
        owner = router.worker_for("cat")
        assert router.affinity_key("cat") in owner.cache.keys()

    def test_all_served_on_owning_worker(self, store):
        router = build_fleet(store)
        results = drive(router, WORKLOADS, 64)
        assert len(results) == 64
        by_workload = {}
        for res in results:
            by_workload.setdefault(res.workload, set()).add(res.worker_id)
        for workload, worker_ids in by_workload.items():
            assert worker_ids == {router.worker_for(workload).worker_id}


class TestAdmissionControl:
    def test_class_depth_bound_raises_typed_error(self, store):
        policies = dict(DEFAULT_SLO_POLICIES)
        policies[SloClass.INTERACTIVE] = SloPolicy(max_queue_depth=2)
        router = build_fleet(store, policies=policies)
        router.submit("cat", slo="interactive")
        router.submit("cat", slo="interactive")
        with pytest.raises(FleetAdmissionError) as exc:
            router.submit("cat", slo="interactive")
        assert exc.value.slo is SloClass.INTERACTIVE
        # Other classes are unaffected by the full interactive queue.
        router.submit("cat", slo="batch")
        assert router.class_depth("interactive") == 2
        assert router.class_depth("batch") == 1
        counters = router.metrics.snapshot()["counters"]
        assert counters["fleet.requests_rejected.interactive"] == 1

    def test_depth_frees_after_serving(self, store):
        router = build_fleet(store)
        router.submit("cat")
        assert router.queue_depth == 1
        router.drain()
        assert router.queue_depth == 0


class TestDeadlineShedding:
    def test_expired_requests_shed_not_lost(self, store):
        policies = dict(DEFAULT_SLO_POLICIES)
        policies[SloClass.INTERACTIVE] = SloPolicy(
            max_queue_depth=1024, deadline_units=5
        )
        router = build_fleet(store, policies=policies)
        router.submit("cat", slo="interactive")
        router.submit("cat", slo="batch")
        router.advance_to(100)  # the interactive deadline is long gone
        results = router.drain()
        # The batch request (no deadline) was served; interactive shed.
        assert [r.slo for r in results] == [SloClass.BATCH]
        accounting = router.accounting()
        assert accounting["shed"] == 1
        assert accounting["served"] == 1
        assert accounting["lost"] == 0

    def test_fresh_requests_survive_shedding(self, store):
        policies = dict(DEFAULT_SLO_POLICIES)
        policies[SloClass.INTERACTIVE] = SloPolicy(
            max_queue_depth=1024, deadline_units=1000
        )
        router = build_fleet(store, policies=policies)
        router.submit("cat", slo="interactive")
        router.advance_to(10)
        results = router.drain()
        assert len(results) == 1
        assert router.accounting()["shed"] == 0


class TestVirtualTime:
    def test_latency_is_queueing_plus_service(self, store):
        router = build_fleet(store, num_workers=2)
        router.advance_to(7)
        router.submit("cat")
        router.advance_to(19)
        (result,) = router.drain()
        assert result.arrival_units == 7
        assert result.dispatch_units == 19
        assert result.completion_units == 19 + result.result.sim_latency
        assert result.latency_units == result.completion_units - 7

    def test_back_to_back_batches_queue_on_the_horizon(self, store):
        router = build_fleet(store, num_workers=2, batch_window=1)
        router.submit("cat")
        router.submit("cat")
        first, second = router.drain()
        # Second batch dispatches when the first completes, not at now.
        assert second.dispatch_units == first.completion_units

    def test_deterministic_across_runs(self, store, tmp_path):
        from repro.fleet.store import SharedPlanStore

        latencies = []
        for run in range(2):
            fresh = SharedPlanStore(tmp_path / f"run-{run}")
            router = build_fleet(fresh)
            results = drive(router, WORKLOADS, 48)
            latencies.append(
                sorted((r.fleet_id, r.latency_units) for r in results)
            )
        assert latencies[0] == latencies[1]


class TestFailover:
    def test_kill_worker_loses_nothing(self, store):
        router = build_fleet(store)
        for index in range(32):
            router.advance_to(index)
            router.submit(WORKLOADS[index % len(WORKLOADS)])
        victim = router.worker_for("cat").worker_id
        rerouted = router.kill_worker(victim)
        assert rerouted > 0
        assert victim not in router.ring
        results = router.drain()
        accounting = router.accounting()
        assert accounting["lost"] == 0
        assert accounting["served"] == 32
        assert len({r.fleet_id for r in results}) == 32
        assert all(r.worker_id != victim for r in results)

    def test_rerouted_requests_keep_arrival_time(self, store):
        router = build_fleet(store, num_workers=2)
        router.advance_to(3)
        victim = router.worker_for("cat").worker_id
        router.submit("cat")
        router.advance_to(50)
        router.kill_worker(victim)
        (result,) = router.drain()
        assert result.arrival_units == 3
        assert result.latency_units >= 47

    def test_submit_to_dead_worker_raises(self, store):
        machine = PimConfig(num_pes=16)
        worker = FleetWorker(
            "w", machine.partition(range(16)), graph_loader=loader
        )
        worker.kill()
        with pytest.raises(WorkerDeadError):
            worker.submit(
                "cat", iterations=1, slo=SloClass.STANDARD,
                arrival_units=0, fleet_id=1,
            )

    def test_routing_rehashes_to_survivors(self, store):
        router = build_fleet(store)
        before = {w: router.worker_for(w).worker_id for w in WORKLOADS}
        victim = before["cat"]
        router.kill_worker(victim)
        after = {w: router.worker_for(w).worker_id for w in WORKLOADS}
        assert after["cat"] != victim
        # Workloads the victim never owned keep their owner (warm caches).
        for workload, owner in before.items():
            if owner != victim:
                assert after[workload] == owner

    def test_killing_entire_fleet_with_queued_work_raises(self, store):
        from repro.fleet.hashing import EmptyRingError

        router = build_fleet(store, num_workers=2)
        owner = router.worker_for("cat").worker_id
        other = next(w for w in router.workers if w != owner)
        router.submit("cat")
        router.kill_worker(other)  # queue empty: clean removal
        with pytest.raises(EmptyRingError):
            router.kill_worker(owner)  # nowhere left to re-route

    def test_saturated_survivor_is_pumped_during_reroute(self, store):
        from repro.graph.generators import BENCHMARK_SIZES

        router = build_fleet(store, num_workers=2, max_queue=4)
        owned = {}
        for workload in BENCHMARK_SIZES:
            owned.setdefault(
                router.worker_for(workload).worker_id, []
            ).append(workload)
        assert len(owned) == 2, "expected both workers to own workloads"
        (a, a_wls), (b, b_wls) = owned.items()
        # Fill b's queue, then put work on a and kill it: rerouting must
        # pump b to make room instead of dropping.
        for _ in range(4):
            router.submit(b_wls[0])
        for _ in range(3):
            router.submit(a_wls[0])
        router.kill_worker(a)
        router.drain()
        accounting = router.accounting()
        assert accounting["lost"] == 0
        assert accounting["served"] == 7


class TestReporting:
    def test_fleet_metrics_aggregate_workers(self, store):
        router = build_fleet(store)
        drive(router, WORKLOADS, 32)
        merged = router.fleet_metrics().snapshot()["counters"]
        per_worker = sum(
            w.server.metrics.snapshot()["counters"].get("requests_served", 0)
            for w in router.workers.values()
        )
        assert merged["requests_served"] == per_worker == 32
        assert merged["fleet.requests_admitted"] == 32

    def test_cache_summary_counts_all_shards(self, store):
        router = build_fleet(store)
        drive(router, WORKLOADS, 16)
        summary = router.cache_summary()
        assert summary["misses"] == len(WORKLOADS)
        assert 0.0 <= summary["hit_rate"] <= 1.0

    def test_worker_snapshot_shape(self, store):
        router = build_fleet(store)
        drive(router, ["cat"], 8)
        snapshot = router.worker_for("cat").snapshot()
        assert snapshot["alive"] is True
        assert snapshot["served"] == 8
        assert snapshot["pes"] == 16
        assert "partition" in snapshot and "cache" in snapshot


class TestBackpressure:
    def test_shard_queue_full_propagates(self, store):
        router = build_fleet(store, num_workers=2, max_queue=2)
        owner_queue = []
        with pytest.raises(QueueFullError):
            for _ in range(10):
                owner_queue.append(router.submit("cat"))
        assert len(owner_queue) == 2
        # Router depth only counts admitted requests.
        assert router.queue_depth == 2
        router.drain()
        assert router.accounting()["lost"] == 0


# ----------------------------------------------------------------------
# the CLI's build_fleet: one graph per workload per fleet
# ----------------------------------------------------------------------
#: real workloads that compile in milliseconds on a 16-PE shard.
CLI_MIX = ["flower", "lenet5", "stock-predict", "string-matching"]


@pytest.fixture()
def graph_builds(monkeypatch):
    """Every build through ``repro.cnn.workloads.load_workload``, by name."""
    builds: Counter = Counter()
    real = cnn_workloads.load_workload

    def counting(name):
        builds[name] += 1
        return real(name)

    monkeypatch.setattr(cnn_workloads, "load_workload", counting)
    return builds


def serve_with_kill(router, count=64):
    """Serve ``count`` requests over CLI_MIX, killing the first workload's
    owner halfway so a survivor opens a session for it."""
    for index in range(count):
        router.advance_to(index)
        if index == count // 2:
            router.kill_worker(router.worker_for(CLI_MIX[0]).worker_id)
        router.submit(CLI_MIX[index % len(CLI_MIX)])
        if (index + 1) % 8 == 0:
            router.pump()
    router.drain()
    assert router.accounting()["lost"] == 0


class TestFleetScopedGraphs:
    def test_each_workload_built_once_across_a_kill(self, store, graph_builds):
        router = fleet_cli.build_fleet(4, 64, 32, store)
        serve_with_kill(router)
        sessions = sum(
            len(worker.server.sessions()) for worker in router.workers.values()
        )
        assert sessions > len(CLI_MIX)  # a survivor took over a workload
        assert graph_builds == Counter({name: 1 for name in CLI_MIX})

    def test_router_and_shards_resolve_the_same_object(self, store):
        router = fleet_cli.build_fleet(4, 64, 32, store)
        serve_with_kill(router)
        for name in CLI_MIX:
            graph = router.graph_loader(name)
            for worker in router.workers.values():
                assert worker.server.graph_loader(name) is graph
                session = worker.server.sessions().get(name)
                if session is not None:
                    assert session.graph is graph
                    assert session.plan.graph is graph

    def test_a_new_fleet_builds_its_graphs_again(self, store, graph_builds):
        first = fleet_cli.build_fleet(2, 32, 16, store)
        second = fleet_cli.build_fleet(2, 32, 16, store)
        graph = first.graph_loader("flower")
        assert first.graph_loader("flower") is graph
        assert second.graph_loader("flower") is not graph
        assert graph_builds["flower"] == 2

    def test_rewire_override_wins_over_the_shared_loader(self, store):
        router = fleet_cli.build_fleet(2, 32, 16, store)
        for _ in range(4):
            router.submit("flower")
        router.drain()
        new_graph = cnn_workloads.load_workload("lenet5").relabelled("flower-v2")
        router.rewire("flower", new_graph)
        for _ in range(4):
            router.submit("flower")
        router.drain()
        reference = next(iter(router.workers.values()))
        assert router.affinity_key("flower") == plan_key_for(
            new_graph, reference.serving_config, reference.server.allocator
        ).digest
        assert router.graph_loader("flower") is not new_graph
        sessions = [
            worker.server.sessions()["flower"]
            for worker in router.workers.values()
            if "flower" in worker.server.sessions()
        ]
        assert sessions
        assert all(session.graph is new_graph for session in sessions)
