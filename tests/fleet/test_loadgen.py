"""FleetLoadGenerator determinism and the run_bench harness."""

from __future__ import annotations

import random

import pytest

from repro.fleet.loadgen import (
    FleetLoadGenerator,
    TraceRequest,
    _percentiles,
    run_bench,
)
from repro.fleet.slo import SloClass

from tests.fleet.conftest import build_fleet

WORKLOADS = ["cat", "car", "flower", "speech-1"]


class TestGenerator:
    def test_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            FleetLoadGenerator([])
        with pytest.raises(ValueError, match="weights"):
            FleetLoadGenerator(["cat"], weights=[1.0, 2.0])
        with pytest.raises(ValueError, match="mean_interarrival"):
            FleetLoadGenerator(["cat"], mean_interarrival_units=0)
        with pytest.raises(ValueError, match="no positive"):
            FleetLoadGenerator(["cat"], slo_mix={SloClass.BATCH: 0.0})

    @pytest.mark.parametrize(
        "weights",
        [[2.0, -1.0], [0.0, 0.0], [1.0, float("inf")], [float("nan"), 1.0]],
    )
    def test_bad_weights_rejected_at_construction(self, weights):
        with pytest.raises(ValueError, match="workload weights"):
            FleetLoadGenerator(["cat", "car"], weights=weights)

    @pytest.mark.parametrize("seed", [0, 1, 7])
    def test_trace_equals_a_weights_stream(self, seed):
        """Precomputed cumulative weights draw what ``weights=`` draws."""
        weights = [3.0, 0.5, 1.25, 2.0]
        mix = {SloClass.INTERACTIVE: 0.3, SloClass.BATCH: 0.7}
        gen = FleetLoadGenerator(
            WORKLOADS, weights=weights, slo_mix=mix, seed=seed
        )
        rng = random.Random(seed)
        expected = []
        for _ in range(300):
            rng.random()  # the interarrival draw
            expected.append((
                rng.choices(WORKLOADS, weights)[0],
                rng.choices(list(mix), list(mix.values()))[0],
            ))
        assert [(t.workload, t.slo) for t in gen.requests(300)] == expected

    def test_same_seed_same_trace(self):
        gen = FleetLoadGenerator(WORKLOADS, seed=11)
        first = list(gen.requests(500))
        second = list(gen.requests(500))
        assert first == second

    def test_different_seeds_differ(self):
        a = list(FleetLoadGenerator(WORKLOADS, seed=1).requests(200))
        b = list(FleetLoadGenerator(WORKLOADS, seed=2).requests(200))
        assert a != b

    def test_arrivals_monotone_and_typed(self):
        previous = -1
        for trace in FleetLoadGenerator(WORKLOADS, seed=3).requests(300):
            assert isinstance(trace, TraceRequest)
            assert trace.arrival_units >= previous
            previous = trace.arrival_units
            assert trace.workload in WORKLOADS
            assert isinstance(trace.slo, SloClass)

    def test_mix_respects_zero_weights(self):
        gen = FleetLoadGenerator(
            WORKLOADS,
            slo_mix={SloClass.BATCH: 1.0},
            seed=4,
        )
        assert all(
            t.slo is SloClass.BATCH for t in gen.requests(100)
        )

    def test_mean_interarrival_scales_horizon(self):
        slow = list(
            FleetLoadGenerator(
                WORKLOADS, mean_interarrival_units=100, seed=5
            ).requests(200)
        )[-1].arrival_units
        fast = list(
            FleetLoadGenerator(
                WORKLOADS, mean_interarrival_units=1, seed=5
            ).requests(200)
        )[-1].arrival_units
        assert slow > 10 * fast


class TestPercentiles:
    def test_empty(self):
        assert _percentiles([])["count"] == 0

    def test_nearest_rank(self):
        stats = _percentiles(list(range(1, 101)))
        assert stats["p50"] == 50
        assert stats["p95"] == 95
        assert stats["p99"] == 99
        assert stats["max"] == 100
        assert stats["mean"] == pytest.approx(50.5)


class TestRunBench:
    def test_healthy_run_report_shape(self, store):
        router = build_fleet(store, batch_window=16)
        report = run_bench(
            router,
            FleetLoadGenerator(WORKLOADS, seed=0),
            num_requests=200,
            pump_every=16,
        )
        assert report["schema"] == "BENCH_fleet/v1"
        assert report["accounting"]["lost"] == 0
        assert report["accounting"]["served"] == 200
        assert report["latency_units"]["overall"]["count"] == 200
        per_class_total = sum(
            report["latency_units"][slo.value]["count"] for slo in SloClass
        )
        assert per_class_total == 200
        assert report["live_workers"] == 4
        assert len(report["workers"]) == 4

    def test_kill_mid_run_loses_nothing(self, store):
        router = build_fleet(store, batch_window=16)
        report = run_bench(
            router,
            FleetLoadGenerator(WORKLOADS, seed=0),
            num_requests=300,
            kill_worker_id="worker-2",
            pump_every=16,
        )
        assert report["kill_worker_id"] == "worker-2"
        assert report["kill_after"] == 150
        assert report["live_workers"] == 3
        assert report["accounting"]["lost"] == 0
        assert report["accounting"]["served"] == 300
        assert report["accounting"]["workers_lost"] == 1
        # One compile per workload fleet-wide: the killed worker's
        # workloads re-home as disk hits, never as recompiles.
        cache = report["cache"]
        assert cache["misses"] == cache["disk_writes"] == len(WORKLOADS)
        assert cache["hits"] == cache["disk_hits"]

    def test_backpressure_retry_never_drops(self, store):
        """Tiny queues force admission retries; the bench still serves
        every arrival exactly once."""
        router = build_fleet(store, batch_window=4, max_queue=8)
        report = run_bench(
            router,
            FleetLoadGenerator(WORKLOADS, seed=1),
            num_requests=120,
            pump_every=64,
        )
        assert report["accounting"]["served"] == 120
        assert report["accounting"]["lost"] == 0

    def test_deterministic_latencies(self, store, tmp_path):
        from repro.fleet.store import SharedPlanStore

        reports = []
        for run in range(2):
            router = build_fleet(
                SharedPlanStore(tmp_path / f"s{run}"), batch_window=16
            )
            reports.append(
                run_bench(
                    router,
                    FleetLoadGenerator(WORKLOADS, seed=9),
                    num_requests=150,
                    kill_worker_id="worker-1",
                    pump_every=16,
                )
            )
        assert (
            reports[0]["latency_units"] == reports[1]["latency_units"]
        )
        assert reports[0]["accounting"] == reports[1]["accounting"]
