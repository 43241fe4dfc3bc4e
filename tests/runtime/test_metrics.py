"""Metrics primitives: percentile math, reservoir behavior, registry."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    percentile,
)


class TestPercentile:
    def test_exact_small_sample(self):
        values = [1.0, 2.0, 3.0, 4.0, 5.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 50) == 3.0
        assert percentile(values, 100) == 5.0

    def test_linear_interpolation(self):
        assert percentile([1.0, 2.0], 50) == pytest.approx(1.5)
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_matches_numpy(self):
        numpy = pytest.importorskip("numpy")
        values = [float(v) for v in [9, 1, 7, 3, 5, 2, 8]]
        for q in (10, 50, 90, 95, 99):
            assert percentile(values, q) == pytest.approx(
                float(numpy.percentile(values, q))
            )

    def test_errors(self):
        with pytest.raises(ValueError):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_single_sample(self):
        assert percentile([42.0], 99) == 42.0


class TestCounterGauge:
    def test_counter_monotone(self):
        counter = Counter("n")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_gauge_set_add(self):
        gauge = Gauge("depth")
        gauge.set(3)
        gauge.add(-1)
        assert gauge.value == 2.0


class TestHistogram:
    def test_summary_statistics(self):
        hist = Histogram("lat")
        for v in [5, 1, 3, 2, 4]:
            hist.observe(v)
        summary = hist.summary()
        assert summary["count"] == 5
        assert summary["min"] == 1.0 and summary["max"] == 5.0
        assert summary["mean"] == pytest.approx(3.0)
        assert summary["p50"] == pytest.approx(3.0)

    def test_empty_summary(self):
        assert Histogram("lat").summary() == {"count": 0}

    @pytest.mark.parametrize(
        "values",
        [
            [random.Random(7).uniform(-1e3, 1e3) for _ in range(257)],
            [random.Random(8).randrange(50) for _ in range(5000)],
            [42.5],
            [9.0, 1.0, 7.0, 3.0, 5.0, 2.0, 8.0, 4.0],
        ],
        ids=["random", "past-the-reservoir", "one-sample", "even-length"],
    )
    def test_summary_percentiles_equal_percentile(self, values):
        # summary() sorts the reservoir once for all three percentiles;
        # each must be exactly what percentile() gives on the samples.
        hist = Histogram("lat")
        hist.observe_many(values)
        samples = list(hist._samples)
        summary = hist.summary()
        for q in (50, 95, 99):
            assert repr(summary[f"p{q}"]) == repr(percentile(samples, q))
            assert repr(getattr(hist, f"p{q}")) == repr(summary[f"p{q}"])

    def test_reservoir_bounds_memory_but_tracks_extremes(self):
        hist = Histogram("lat", reservoir_size=64)
        for v in range(10_000):
            hist.observe(float(v))
        assert hist.count == 10_000
        assert len(hist._samples) == 64
        assert hist.min == 0.0 and hist.max == 9999.0
        # percentiles stay order-of-magnitude faithful under sampling
        assert 3000 < hist.p50 < 7000

    def test_reservoir_is_seeded_deterministic(self):
        def fill():
            hist = Histogram("lat", reservoir_size=16)
            for v in range(1000):
                hist.observe(float(v))
            return list(hist._samples)

        assert fill() == fill()


def _state(hist: Histogram):
    return (hist.count, hist.total, hist.min, hist.max, list(hist._samples))


class TestObserveMany:
    """``observe_many`` is the one recording body: equal to an ``observe``
    loop field for field, down to the next RNG draw."""

    @settings(max_examples=200, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.integers(min_value=-10**6, max_value=10**6),
                st.floats(allow_nan=False, allow_infinity=False, width=32),
            ),
            max_size=200,
        ),
        reservoir_size=st.integers(min_value=1, max_value=64),
        split=st.integers(min_value=0, max_value=200),
    )
    def test_equals_observe_loop(self, values, reservoir_size, split):
        looped = Histogram("lat", reservoir_size=reservoir_size)
        for value in values:
            looped.observe(value)
        batched = Histogram("lat", reservoir_size=reservoir_size)
        # Two batches: recording may be split anywhere in the stream.
        batched.observe_many(values[:split])
        batched.observe_many(iter(values[split:]))
        assert _state(batched) == _state(looped)
        assert batched._rng.random() == looped._rng.random()

    def test_crosses_the_reservoir_boundary(self):
        values = [float((7 * v) % 101) for v in range(300)]
        looped = Histogram("lat", reservoir_size=16)
        for value in values:
            looped.observe(value)
        batched = Histogram("lat", reservoir_size=16)
        batched.observe_many(values[:10])
        batched.observe_many(values[10:])
        assert batched.count == 300 and len(batched._samples) == 16
        assert _state(batched) == _state(looped)
        assert batched._rng.random() == looped._rng.random()

    def test_empty_sequence_changes_nothing(self):
        hist = Histogram("lat", reservoir_size=4)
        hist.observe_many([])
        assert _state(hist) == (0, 0.0, None, None, [])
        assert hist._rng.random() == Histogram("lat")._rng.random()
        for value in (3.0, 1.0, 2.0, 5.0, 4.0):
            hist.observe(value)
        before = _state(hist)
        hist.observe_many(())
        assert _state(hist) == before


class TestRegistry:
    def test_idempotent_creation(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        assert registry.gauge("b") is registry.gauge("b")
        assert registry.histogram("c") is registry.histogram("c")

    def test_lookup_of_existing_instrument_builds_nothing(self, monkeypatch):
        import repro.runtime.metrics as metrics

        registry = MetricsRegistry()
        counter = registry.counter("a")
        gauge = registry.gauge("b")
        histogram = registry.histogram("c")
        built = []

        def refuse(name, *args):
            built.append(name)
            raise AssertionError(f"instrument {name!r} rebuilt")

        monkeypatch.setattr(metrics, "Counter", refuse)
        monkeypatch.setattr(metrics, "Gauge", refuse)
        monkeypatch.setattr(metrics, "Histogram", refuse)
        for _ in range(3):
            assert registry.counter("a") is counter
            assert registry.gauge("b") is gauge
            assert registry.histogram("c") is histogram
        assert built == []

    def test_snapshot_and_render(self):
        registry = MetricsRegistry()
        registry.counter("served").inc(3)
        registry.gauge("depth").set(2)
        registry.histogram("lat").observe(1.5)
        registry.histogram("empty")
        snap = registry.snapshot()
        assert snap["counters"]["served"] == 3
        assert snap["gauges"]["depth"] == 2.0
        assert snap["histograms"]["lat"]["count"] == 1
        text = registry.render()
        assert "served" in text and "depth" in text
        assert "count=0" in text  # empty histogram renders safely

    def test_empty_render(self):
        assert MetricsRegistry().render() == "(no metrics recorded)"


class TestThreadSafety:
    """Regression: instrument mutation used to race (registry lock only
    guarded dict creation), silently dropping increments under the
    multi-threaded warmup/failover paths."""

    def test_concurrent_hammer_is_exact(self):
        import threading

        registry = MetricsRegistry()
        threads = 8
        per_thread = 2_000
        barrier = threading.Barrier(threads)

        def hammer(worker: int) -> None:
            counter = registry.counter("served")
            gauge = registry.gauge("accumulator")
            hist = registry.histogram("lat", reservoir_size=64)
            barrier.wait()
            for i in range(per_thread):
                counter.inc()
                gauge.add(1.0)
                hist.observe(float(worker * per_thread + i))

        workers = [
            threading.Thread(target=hammer, args=(w,)) for w in range(threads)
        ]
        for thread in workers:
            thread.start()
        for thread in workers:
            thread.join()
        total = threads * per_thread
        snap = registry.snapshot()
        assert snap["counters"]["served"] == total
        assert snap["gauges"]["accumulator"] == float(total)
        assert snap["histograms"]["lat"]["count"] == total

    def test_concurrent_batches_are_exact(self):
        """Batches recorded from many threads lose no value: the batch
        body keeps its running totals in locals, under the lock."""
        import sys
        import threading

        hist = Histogram("lat", reservoir_size=64)
        threads = 8
        batches = 200
        batch = [1.0, 2.0, 3.0, 4.0]
        barrier = threading.Barrier(threads)

        def hammer() -> None:
            barrier.wait()
            for _ in range(batches):
                hist.observe_many(batch)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=hammer) for _ in range(threads)]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in workers)
        assert hist.count == threads * batches * len(batch)
        assert hist.total == threads * batches * sum(batch)
        assert (hist.min, hist.max) == (1.0, 4.0)
        assert len(hist._samples) == 64

    def test_summary_consistent_under_concurrent_observe(self):
        import threading

        registry = MetricsRegistry()
        hist = registry.histogram("lat", reservoir_size=32)
        stop = threading.Event()

        def writer() -> None:
            value = 0.0
            while not stop.is_set():
                value += 1.0
                hist.observe(value)

        thread = threading.Thread(target=writer)
        thread.start()
        try:
            for _ in range(200):
                summary = hist.summary()
                if summary["count"]:
                    assert summary["min"] <= summary["p50"] <= summary["max"]
        finally:
            stop.set()
            thread.join()

    def test_instrument_locks_do_not_break_equality(self):
        assert Counter("a", 3) == Counter("a", 3)
        assert Gauge("g", 1.0) == Gauge("g", 1.0)


class TestHistogramMerge:
    def test_merge_preserves_exact_aggregates(self):
        a = Histogram("lat")
        b = Histogram("lat")
        for v in (1.0, 5.0, 3.0):
            a.observe(v)
        for v in (10.0, 0.5):
            b.observe(v)
        a.merge(b)
        assert a.count == 5
        assert a.total == pytest.approx(19.5)
        assert a.min == 0.5
        assert a.max == 10.0
        # Small streams keep every sample: percentiles stay exact.
        assert a.p50 == 3.0

    def test_merge_empty_is_noop(self):
        a = Histogram("lat")
        a.observe(2.0)
        a.merge(Histogram("lat"))
        assert a.count == 1
        empty = Histogram("lat")
        empty.merge(Histogram("lat"))
        assert empty.count == 0
        assert empty.min is None

    def test_merge_into_empty(self):
        a = Histogram("lat")
        b = Histogram("lat")
        b.observe(7.0)
        a.merge(b)
        assert a.count == 1
        assert a.min == a.max == 7.0

    def test_merge_bounds_reservoir(self):
        a = Histogram("lat", reservoir_size=8)
        b = Histogram("lat", reservoir_size=8)
        for v in range(16):
            a.observe(float(v))
            b.observe(float(100 + v))
        a.merge(b)
        assert len(a._samples) == 8
        assert a.count == 32
        assert a.max == 115.0  # exact even when sampled out

    def test_merge_is_deterministic(self):
        def build():
            a = Histogram("lat", reservoir_size=8)
            b = Histogram("lat", reservoir_size=8)
            for v in range(30):
                a.observe(float(v))
                b.observe(float(v) * 2)
            a.merge(b)
            return a._samples

        assert build() == build()


class TestRegistryMerge:
    def test_counters_add_gauges_sum_histograms_fold(self):
        a = MetricsRegistry()
        b = MetricsRegistry()
        a.counter("served").inc(3)
        b.counter("served").inc(4)
        b.counter("only_b").inc(1)
        a.gauge("queue_depth").set(5)
        b.gauge("queue_depth").set(7)
        a.histogram("lat").observe(1.0)
        b.histogram("lat").observe(3.0)

        merged = MetricsRegistry().merge(a).merge(b)
        snap = merged.snapshot()
        assert snap["counters"]["served"] == 7
        assert snap["counters"]["only_b"] == 1
        # Fleet queue depth is the *sum* of shard depths.
        assert snap["gauges"]["queue_depth"] == 12.0
        assert snap["histograms"]["lat"]["count"] == 2
        assert snap["histograms"]["lat"]["mean"] == pytest.approx(2.0)

    def test_merge_returns_self_for_chaining(self):
        a = MetricsRegistry()
        assert a.merge(MetricsRegistry()) is a

    def test_merge_leaves_source_untouched(self):
        source = MetricsRegistry()
        source.counter("n").inc(2)
        source.histogram("lat").observe(1.5)
        MetricsRegistry().merge(source)
        snap = source.snapshot()
        assert snap["counters"]["n"] == 2
        assert snap["histograms"]["lat"]["count"] == 1

    def test_concurrent_merge_while_recording(self):
        """Aggregating a live registry must not deadlock or corrupt."""
        import threading as _threading

        live = MetricsRegistry()
        stop = _threading.Event()

        def record():
            while not stop.is_set():
                live.counter("n").inc()
                live.histogram("lat").observe(1.0)

        workers = [_threading.Thread(target=record) for _ in range(4)]
        for w in workers:
            w.start()
        try:
            for _ in range(50):
                view = MetricsRegistry().merge(live)
                snap = view.snapshot()
                assert snap["counters"].get("n", 0) >= 0
        finally:
            stop.set()
            for w in workers:
                w.join()
        final = MetricsRegistry().merge(live).snapshot()
        assert final["counters"]["n"] == live.counter("n").value
