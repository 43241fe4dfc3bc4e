"""Serving metrics: counters, gauges and streaming latency histograms.

The runtime layer needs the classic serving triplet — request counters,
occupancy gauges, and latency percentiles — without any external metrics
dependency. :class:`Histogram` keeps a bounded reservoir so a long-running
server's memory stays constant while p50/p95/p99 remain exact for small
streams and statistically faithful for large ones.

Thread safety: the registry lock guards instrument *creation*; every
instrument additionally carries its own lock guarding *mutation and
reads* (``Counter.inc``, ``Gauge.set``/``add``,
``Histogram.observe``/``observe_many`` and the summary accessors). The
warmup workers and the failover path record from multiple threads
concurrently; without per-instrument locking, read-modify-write races
silently drop increments (the classic ``value += amount`` lost update),
which corrupts serving dashboards in ways no test of single-threaded
code can catch.

Hot paths record per batch, not per request: they keep the instrument a
registry lookup returned the first time they ran (so a snapshot still
lists only instruments that were used) and hand a whole batch of
latencies to :meth:`Histogram.observe_many`, which equals a loop of
``observe``.
"""

from __future__ import annotations

import math
import random
import threading
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "percentile",
    "record_compile_stats",
]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolation percentile of ``values`` (``q`` in [0, 100]).

    Matches ``numpy.percentile``'s default (linear) method so the figures
    the CLI prints line up with any offline analysis of the same samples.
    Raises ``ValueError`` on an empty sample or out-of-range ``q``.
    """
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile q must be in [0, 100], got {q}")
    return _sorted_percentile(sorted(values), q)


def _sorted_percentile(ordered: List[float], q: float) -> float:
    """:func:`percentile` of a non-empty, already sorted sample."""
    if len(ordered) == 1:
        return float(ordered[0])
    rank = (q / 100.0) * (len(ordered) - 1)
    lower = math.floor(rank)
    upper = math.ceil(rank)
    if lower == upper:
        return float(ordered[lower])
    frac = rank - lower
    return float(ordered[lower] * (1.0 - frac) + ordered[upper] * frac)


@dataclass
class Counter:
    """Monotonically increasing counter (thread-safe)."""

    name: str
    value: int = 0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def inc(self, amount: int = 1) -> int:
        if amount < 0:
            raise ValueError("counters only move forward")
        with self._lock:
            self.value += amount
            return self.value


@dataclass
class Gauge:
    """Point-in-time value (queue depth, cache occupancy, ...; thread-safe)."""

    name: str
    value: float = 0.0
    _lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def set(self, value: float) -> None:
        with self._lock:
            self.value = float(value)

    def add(self, delta: float) -> None:
        with self._lock:
            self.value += float(delta)


class Histogram:
    """Streaming sample distribution with bounded memory.

    Keeps every observation up to ``reservoir_size``; beyond that it
    switches to Vitter's Algorithm R reservoir sampling (seeded, so runs
    are reproducible). Count/sum/min/max are tracked exactly regardless.
    """

    def __init__(self, name: str, reservoir_size: int = 4096, seed: int = 0x5EED):
        if reservoir_size < 1:
            raise ValueError("reservoir_size must be >= 1")
        self.name = name
        self.reservoir_size = reservoir_size
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None
        self._samples: List[float] = []
        self._rng = random.Random(seed)
        self._lock = threading.Lock()

    def observe(self, value: float) -> None:
        self.observe_many((value,))

    def observe_many(self, values: Iterable[float]) -> None:
        """Record ``values`` in order under one lock acquisition.

        The one recording body: ``observe_many(vs)`` leaves exactly the
        state a loop of ``observe(v)`` would — the same count, total,
        min, max and reservoir, and the same Algorithm R draws from the
        seeded RNG in the same order — so a caller may record a whole
        batch at once without changing what any snapshot shows.
        """
        with self._lock:
            count = self.count
            total = self.total
            low = self.min
            high = self.max
            samples = self._samples
            size = self.reservoir_size
            randrange = self._rng.randrange
            for value in values:
                value = float(value)
                count += 1
                total += value
                if low is None or value < low:
                    low = value
                if high is None or value > high:
                    high = value
                if len(samples) < size:
                    samples.append(value)
                else:
                    slot = randrange(count)
                    if slot < size:
                        samples[slot] = value
            self.count = count
            self.total = total
            self.min = low
            self.max = high

    def merge(self, other: "Histogram") -> None:
        """Fold another histogram's observations into this one.

        The other histogram's state is snapshotted under *its* lock, then
        folded in under *this* one's — the two locks are never held
        together, so worker threads recording into either side cannot
        deadlock a fleet-view aggregation. Count/sum/min/max stay exact;
        the merged reservoir keeps every sample while the combined stream
        fits, and degrades to a seeded (deterministic) subsample beyond
        ``reservoir_size``, exactly like a single histogram would.
        """
        with other._lock:
            count = other.count
            total = other.total
            low = other.min
            high = other.max
            samples = list(other._samples)
        if not count:
            return
        with self._lock:
            self.count += count
            self.total += total
            self.min = low if self.min is None else min(self.min, low)
            self.max = high if self.max is None else max(self.max, high)
            combined = self._samples + samples
            if len(combined) > self.reservoir_size:
                combined = self._rng.sample(combined, self.reservoir_size)
            self._samples = combined

    @property
    def mean(self) -> float:
        with self._lock:
            return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        with self._lock:
            samples = list(self._samples)
        return percentile(samples, q)

    @property
    def p50(self) -> float:
        return self.percentile(50.0)

    @property
    def p95(self) -> float:
        return self.percentile(95.0)

    @property
    def p99(self) -> float:
        return self.percentile(99.0)

    def summary(self) -> Dict[str, float]:
        """Consistent snapshot of the classic latency summary.

        All fields are read under one lock acquisition so a concurrent
        ``observe`` can never produce a summary whose count and
        percentiles disagree. The reservoir is sorted once for all three
        percentiles.
        """
        with self._lock:
            if not self.count:
                return {"count": 0}
            count = self.count
            total = self.total
            low = self.min
            high = self.max
            ordered = list(self._samples)
        ordered.sort()
        return {
            "count": count,
            "mean": total / count,
            "min": low,
            "p50": _sorted_percentile(ordered, 50.0),
            "p95": _sorted_percentile(ordered, 95.0),
            "p99": _sorted_percentile(ordered, 99.0),
            "max": high,
        }


@dataclass
class MetricsRegistry:
    """Named collection of counters, gauges and histograms."""

    counters: Dict[str, Counter] = field(default_factory=dict)
    gauges: Dict[str, Gauge] = field(default_factory=dict)
    histograms: Dict[str, Histogram] = field(default_factory=dict)
    _lock: threading.Lock = field(default_factory=threading.Lock, repr=False)

    def counter(self, name: str) -> Counter:
        with self._lock:
            counter = self.counters.get(name)
            if counter is None:
                counter = self.counters[name] = Counter(name)
            return counter

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            gauge = self.gauges.get(name)
            if gauge is None:
                gauge = self.gauges[name] = Gauge(name)
            return gauge

    def histogram(self, name: str, reservoir_size: int = 4096) -> Histogram:
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram(
                    name, reservoir_size
                )
            return histogram

    def snapshot(self) -> Dict[str, Any]:
        """JSON-compatible dump of everything recorded so far."""
        with self._lock:
            return {
                "counters": {n: c.value for n, c in sorted(self.counters.items())},
                "gauges": {n: g.value for n, g in sorted(self.gauges.items())},
                "histograms": {
                    n: h.summary() for n, h in sorted(self.histograms.items())
                },
            }

    def merge(self, other: "MetricsRegistry") -> "MetricsRegistry":
        """Fold another registry's instruments into this one (fleet view).

        Counters add, gauges *sum* (fleet queue depth is the sum of the
        shards' queue depths), histograms merge sample-wise via
        :meth:`Histogram.merge`. Per-instrument locking is preserved
        throughout — the router aggregates live worker registries while
        those workers keep serving. Returns ``self`` so a fleet snapshot
        reads ``MetricsRegistry().merge(a).merge(b).snapshot()``.
        """
        with other._lock:
            counters = list(other.counters.values())
            gauges = list(other.gauges.values())
            histograms = list(other.histograms.values())
        for counter in counters:
            with counter._lock:
                value = counter.value
            self.counter(counter.name).inc(value)
        for gauge in gauges:
            with gauge._lock:
                value = gauge.value
            self.gauge(gauge.name).add(value)
        for histogram in histograms:
            self.histogram(histogram.name, histogram.reservoir_size).merge(
                histogram
            )
        return self

    def record_compile_stats(self, stats: Any) -> None:
        """Fold one compile's per-pass breakdown into the registry.

        ``stats`` is duck-typed against
        :class:`repro.compiler.pipeline.CompileStats` (``pass_seconds``,
        ``num_explored``, ``num_pruned``, ``total_seconds``) so this module
        never imports the compiler package. Passing ``None`` is a no-op —
        plans hydrated from the disk cache carry no compile stats.
        """
        if stats is None:
            return
        for pass_name, seconds in sorted(stats.pass_seconds.items()):
            self.histogram(f"compile.pass.{pass_name}.seconds").observe(seconds)
        self.counter("compile.widths_explored").inc(stats.num_explored)
        self.counter("compile.widths_pruned").inc(stats.num_pruned)
        self.histogram("compile.total.seconds").observe(stats.total_seconds)

    def render(self) -> str:
        """Human-readable multi-line report (the ``stats`` subcommand).

        Compile-pass histograms recorded via :meth:`record_compile_stats`
        show up here under ``compile.pass.<name>.seconds``."""
        snap = self.snapshot()
        lines: List[str] = []
        for name, value in snap["counters"].items():
            lines.append(f"counter   {name:<32} {value}")
        for name, value in snap["gauges"].items():
            lines.append(f"gauge     {name:<32} {value:g}")
        for name, summary in snap["histograms"].items():
            if summary.get("count"):
                lines.append(
                    f"histogram {name:<32} count={summary['count']} "
                    f"mean={summary['mean']:.6g} p50={summary['p50']:.6g} "
                    f"p95={summary['p95']:.6g} p99={summary['p99']:.6g} "
                    f"max={summary['max']:.6g}"
                )
            else:
                lines.append(f"histogram {name:<32} count=0")
        return "\n".join(lines) if lines else "(no metrics recorded)"


def record_compile_stats(registry: MetricsRegistry, stats: Any) -> None:
    """Module-level alias for :meth:`MetricsRegistry.record_compile_stats`."""
    registry.record_compile_stats(stats)
