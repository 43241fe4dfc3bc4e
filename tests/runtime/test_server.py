"""Batching server: admission, coalescing, backpressure, timing."""

from __future__ import annotations

import pytest

from repro.graph.generators import synthetic_benchmark
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import (
    BatchingServer,
    InferenceRequest,
    QueueFullError,
    RequestResult,
)

from tests.runtime.conftest import tiny_graph


class FakeClock:
    """Deterministic monotonic clock for timing assertions."""

    def __init__(self):
        self.now = 0.0

    def tick(self, seconds: float = 1.0) -> None:
        self.now += seconds

    def __call__(self) -> float:
        return self.now


def make_server(config, **kwargs):
    kwargs.setdefault("graph_loader", lambda name: synthetic_benchmark(name))
    kwargs.setdefault("cache", PlanCache(capacity=8))
    return BatchingServer(config, **kwargs)


class TestAdmission:
    def test_submit_assigns_increasing_ids(self, config):
        server = make_server(config, max_queue=4)
        r1 = server.submit("cat")
        r2 = server.submit("cat")
        assert (r1.request_id, r2.request_id) == (1, 2)
        assert server.queue_depth == 2

    def test_bounded_queue_rejects_not_deadlocks(self, config):
        server = make_server(config, max_queue=3)
        for _ in range(3):
            server.submit("cat")
        with pytest.raises(QueueFullError) as err:
            server.submit("cat")
        assert err.value.capacity == 3
        assert err.value.workload == "cat"
        assert server.metrics.snapshot()["counters"]["requests_rejected"] == 1
        # the queue is still fully servable after the rejection
        assert len(server.drain()) == 3
        # and accepts again afterwards
        server.submit("cat")
        assert server.queue_depth == 1

    def test_invalid_parameters(self, config):
        with pytest.raises(ValueError):
            make_server(config, max_queue=0)
        with pytest.raises(ValueError):
            make_server(config, batch_window=0)
        server = make_server(config)
        with pytest.raises(ValueError):
            server.submit("cat", iterations=0)


class TestCoalescing:
    def test_same_workload_requests_share_one_batch(self, config):
        server = make_server(config, batch_window=8)
        for _ in range(5):
            server.submit("cat")
        results = server.step()
        assert len(results) == 5
        assert {r.batch_id for r in results} == {1}
        assert all(r.batch_size == 5 for r in results)
        counters = server.metrics.snapshot()["counters"]
        assert counters["batches_executed"] == 1
        assert counters["inferences_served"] == 5

    def test_window_bounds_batch_size(self, config):
        server = make_server(config, batch_window=2)
        for _ in range(5):
            server.submit("cat")
        results = server.drain()
        batches = {r.batch_id for r in results}
        assert len(results) == 5
        assert len(batches) == 3  # 2 + 2 + 1

    def test_mixed_workloads_preserve_fifo_between_plans(self, config):
        server = make_server(config, batch_window=8)
        server.submit("cat")
        server.submit("car")
        server.submit("cat")  # coalesces with the head batch
        first = server.step()
        assert [r.request.workload for r in first] == ["cat", "cat"]
        second = server.step()
        assert [r.request.workload for r in second] == ["car"]
        assert server.queue_depth == 0

    def test_one_plan_compile_for_many_requests(self, config):
        cache = PlanCache(capacity=8)
        server = make_server(config, cache=cache, batch_window=4)
        for _ in range(8):
            server.submit("cat")
        server.drain()
        assert cache.stats.misses == 1  # compiled exactly once
        assert cache.stats.compile_seconds > 0.0

    def test_step_on_empty_queue_is_noop(self, config):
        server = make_server(config)
        assert server.step() == []
        assert server.drain() == []


class TestTiming:
    def test_wall_latency_uses_injected_clock(self, config):
        clock = FakeClock()
        server = make_server(config, clock=clock)
        server.submit("cat")
        clock.tick(2.0)
        server.submit("cat")
        clock.tick(3.0)
        results = server.step()
        by_id = {r.request.request_id: r for r in results}
        assert by_id[1].wall_latency == pytest.approx(5.0)
        assert by_id[2].wall_latency == pytest.approx(3.0)

    def test_sim_latency_is_monotone_within_batch(self, config):
        server = make_server(config, batch_window=8)
        for _ in range(6):
            server.submit("cat", iterations=4)
        results = server.step()
        latencies = [r.sim_latency for r in results]
        assert latencies == sorted(latencies)
        # the last request's completion equals the whole batch's time
        plan = server._sessions["cat"].session.plan
        assert latencies[-1] == plan.total_time(6 * 4)

    def test_prologue_amortized_across_batch(self, config):
        """A coalesced batch pays R_max*p once, not once per request."""
        server = make_server(config, batch_window=8)
        for _ in range(4):
            server.submit("cat")
        results = server.step()
        plan = server._sessions["cat"].session.plan
        solo_cost = plan.total_time(1)
        batch_total = results[-1].sim_latency
        assert batch_total < 4 * solo_cost

    def test_metrics_percentiles_exposed(self, config):
        server = make_server(config)
        for _ in range(4):
            server.submit("cat")
        server.drain()
        hist = server.metrics.histogram("sim_latency_units")
        assert hist.count == 4
        assert hist.p50 <= hist.p95 <= hist.p99
        summary = server.throughput_summary()
        assert summary["inferences"] == 4
        assert summary["sim_throughput"] > 0
        assert "plan cache" in server.stats_report()


class TestResultsRetention:
    """The retained result history is bounded; aggregates stay exact."""

    def test_results_deque_is_bounded(self, config):
        server = make_server(config, results_retention=3, batch_window=2)
        for _ in range(7):
            server.submit("cat")
        served = server.drain()
        assert len(served) == 7  # callers still see every result
        retained = server.results
        assert len(retained) == 3  # but the history is capped
        # Newest results survive, oldest are evicted.
        kept_ids = [r.request.request_id for r in retained]
        assert kept_ids == [5, 6, 7]
        counters = server.metrics.snapshot()["counters"]
        assert counters["results_evicted"] == 4
        assert counters["requests_served"] == 7

    def test_throughput_exact_despite_eviction(self, config):
        server = make_server(config, results_retention=2, batch_window=2)
        for _ in range(6):
            server.submit("cat", iterations=2)
        served = server.drain()
        assert len(server.results) == 2  # history truncated...
        summary = server.throughput_summary()
        assert summary["inferences"] == 12.0  # ...aggregates are not
        # wall aggregates are accumulated outside the bounded history,
        # so eviction never skews the wall-throughput figure: the sum
        # covers all six served requests, not just the two retained.
        assert server._wall_seconds_served == pytest.approx(
            sum(r.batch.wall_seconds for r in served)
        )
        assert server._wall_seconds_served > sum(
            r.batch.wall_seconds for r in server.results
        )

    def test_no_eviction_below_cap(self, config):
        server = make_server(config, results_retention=100)
        for _ in range(4):
            server.submit("cat")
        server.drain()
        assert len(server.results) == 4
        assert "results_evicted" not in server.metrics.snapshot()["counters"]

    def test_invalid_retention(self, config):
        with pytest.raises(ValueError):
            make_server(config, results_retention=0)


class TestSubmitValidation:
    """Malformed requests raise ValueError and never consume queue slots."""

    @pytest.mark.parametrize("iterations", [0, -1, -100])
    def test_non_positive_iterations_rejected(self, config, iterations):
        server = make_server(config)
        with pytest.raises(ValueError):
            server.submit("cat", iterations=iterations)
        assert server.queue_depth == 0
        counters = server.metrics.snapshot()["counters"]
        assert "requests_accepted" not in counters
        assert "requests_rejected" not in counters

    def test_rejection_leaves_admitted_state_unchanged(self, config):
        server = make_server(config)
        server.submit("cat")
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            server.submit("cat", iterations=0)
        assert server.queue_depth == 1
        counters = server.metrics.snapshot()["counters"]
        assert counters["requests_accepted"] == 1
        # The next admitted request takes the next id: none was spent.
        assert server.submit("cat").request_id == 2

    def test_validation_precedes_queue_full(self, config):
        """A bad request on a full queue is a ValueError, not
        backpressure — and it must not bump requests_rejected."""
        server = make_server(config, max_queue=1)
        server.submit("cat")
        with pytest.raises(ValueError):
            server.submit("cat", iterations=0)
        counters = server.metrics.snapshot()["counters"]
        assert "requests_rejected" not in counters
        # the queue-full path still works for well-formed requests
        with pytest.raises(QueueFullError):
            server.submit("cat")


class TestRecords:
    """The per-request records are immutable named tuples."""

    def test_fields_are_pinned(self):
        assert InferenceRequest._fields == (
            "request_id", "workload", "iterations", "submit_wall",
        )
        assert RequestResult._fields == (
            "request", "batch_id", "batch_size", "sim_latency",
            "wall_latency", "batch",
        )

    def test_fields_cannot_be_assigned(self, config):
        server = make_server(config)
        request = server.submit("cat")
        (result,) = server.step()
        with pytest.raises(AttributeError):
            request.iterations = 2
        with pytest.raises(AttributeError):
            result.sim_latency = 0

    def test_records_compare_by_value(self, config):
        clock = FakeClock()
        server = make_server(config, clock=clock)
        clock.tick(2.5)
        request = server.submit("cat", iterations=3)
        assert request == InferenceRequest(1, "cat", 3, 2.5)
        clock.tick(1.0)
        (result,) = server.step()
        plan = server._sessions["cat"].session.plan
        assert result.request is request
        assert result == RequestResult(
            request, 1, 1, plan.total_time(3), 1.0, result.batch
        )


class TestCustomGraphs:
    def test_loader_injection(self, config):
        served = []

        def loader(name):
            served.append(name)
            return tiny_graph(name)

        server = BatchingServer(config, graph_loader=loader, cache=PlanCache())
        server.submit("alpha")
        server.submit("alpha")
        server.drain()
        assert served == ["alpha"]  # one session per workload
