"""Trace-driven fleet load generation and the bench harness.

:class:`FleetLoadGenerator` synthesizes a deterministic open-loop arrival
trace — Poisson-like interarrivals, weighted workload mix, weighted SLO
mix — from one seed. The same seed always yields the same trace, on any
host, in any process (the generator builds a fresh ``random.Random`` per
iteration, so two passes over the same generator agree byte for byte).

:func:`run_bench` pushes a trace through a :class:`FleetRouter` in
virtual time: advance the clock to each arrival, submit (with typed
backpressure handled by pumping, never by dropping), optionally kill a
worker mid-run, then drain and assemble the ``BENCH_fleet.json`` report —
per-SLO-class latency percentiles, cache hit ratios and exact request
conservation (``lost`` must be zero, worker death included).
"""

from __future__ import annotations

import math
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, Iterator, List, Mapping, Optional, Sequence

from repro.eval.bench_io import new_report
from repro.runtime.server import QueueFullError

from repro.fleet.router import FleetRouter
from repro.fleet.slo import FleetAdmissionError, SloClass

#: Default SLO traffic mix: mostly standard, some interactive, some batch.
DEFAULT_SLO_MIX: Dict[SloClass, float] = {
    SloClass.INTERACTIVE: 0.2,
    SloClass.STANDARD: 0.6,
    SloClass.BATCH: 0.2,
}


@dataclass(frozen=True)
class TraceRequest:
    """One arrival in a synthesized fleet trace."""

    arrival_units: int
    workload: str
    slo: SloClass
    iterations: int = 1


class FleetLoadGenerator:
    """Deterministic open-loop trace synthesizer.

    Args:
        workloads: workload names to draw from.
        weights: relative draw weight per workload (defaults to uniform).
        slo_mix: relative draw weight per :class:`SloClass` (defaults to
            :data:`DEFAULT_SLO_MIX`).
        mean_interarrival_units: mean gap between arrivals in simulated
            time units; gaps are exponentially distributed (Poisson
            arrivals), quantized to integer units.
        seed: trace seed. Same seed, same trace — everywhere.
    """

    def __init__(
        self,
        workloads: Sequence[str],
        weights: Optional[Sequence[float]] = None,
        slo_mix: Optional[Mapping[SloClass, float]] = None,
        mean_interarrival_units: int = 8,
        seed: int = 0,
    ):
        if not workloads:
            raise ValueError("need at least one workload")
        self.workloads = list(workloads)
        self.weights = (
            list(weights) if weights is not None else [1.0] * len(workloads)
        )
        if len(self.weights) != len(self.workloads):
            raise ValueError(
                f"{len(self.weights)} weights for "
                f"{len(self.workloads)} workloads"
            )
        mix = dict(slo_mix) if slo_mix is not None else dict(DEFAULT_SLO_MIX)
        self.slo_classes = [s for s in SloClass if mix.get(s, 0.0) > 0.0]
        self.slo_weights = [mix[s] for s in self.slo_classes]
        if not self.slo_classes:
            raise ValueError("slo_mix assigns no positive weight")
        if mean_interarrival_units < 1:
            raise ValueError("mean_interarrival_units must be >= 1")
        self.mean_interarrival_units = mean_interarrival_units
        self.seed = seed

    def requests(self, count: int) -> Iterator[TraceRequest]:
        """Yield ``count`` arrivals; deterministic per (seed, count)."""
        rng = random.Random(self.seed)
        arrival = 0
        for _ in range(count):
            # Inverse-CDF exponential gap from one uniform draw, floored
            # into integer units (always advancing at least 0 units).
            gap = -self.mean_interarrival_units * math.log(
                1.0 - rng.random()
            )
            arrival += int(gap)
            workload = rng.choices(self.workloads, self.weights)[0]
            slo = rng.choices(self.slo_classes, self.slo_weights)[0]
            yield TraceRequest(
                arrival_units=arrival, workload=workload, slo=slo
            )


def _percentiles(values: List[int]) -> Dict[str, float]:
    """p50/p95/p99 by nearest-rank on a sorted copy (exact, no interp)."""
    if not values:
        return {"count": 0, "p50": 0.0, "p95": 0.0, "p99": 0.0}
    ordered = sorted(values)
    n = len(ordered)

    def rank(q: float) -> float:
        return float(ordered[min(n - 1, max(0, math.ceil(q * n) - 1))])

    return {
        "count": n,
        "p50": rank(0.50),
        "p95": rank(0.95),
        "p99": rank(0.99),
        "mean": sum(ordered) / n,
        "max": float(ordered[-1]),
    }


def run_bench(
    router: FleetRouter,
    generator: FleetLoadGenerator,
    num_requests: int,
    kill_worker_id: Optional[str] = None,
    kill_after: Optional[int] = None,
    pump_every: int = 512,
) -> Dict[str, Any]:
    """Drive one trace through the fleet and report.

    Args:
        router: the fleet under test.
        generator: arrival-trace source.
        num_requests: trace length.
        kill_worker_id: worker to kill mid-run (fleet failover path);
            ``None`` runs the healthy-fleet bench.
        kill_after: request index at which the kill fires (defaults to
            the halfway point).
        pump_every: serve the fleet after every this many submissions —
            the open-loop analogue of the batch window.

    Returns the ``BENCH_fleet/v1`` report dict. Raises ``RuntimeError``
    if accounting shows a lost request (it never should).
    """
    if kill_worker_id is not None and kill_after is None:
        kill_after = num_requests // 2
    per_class: Dict[SloClass, List[int]] = {s: [] for s in SloClass}
    overall: List[int] = []
    started = time.perf_counter()

    def absorb(results) -> None:
        for res in results:
            per_class[res.slo].append(res.latency_units)
            overall.append(res.latency_units)

    submitted = 0
    rerouted = 0
    for trace in generator.requests(num_requests):
        router.advance_to(trace.arrival_units)
        if (
            kill_worker_id is not None
            and submitted == kill_after
            and router.workers[kill_worker_id].alive
        ):
            rerouted = router.kill_worker(kill_worker_id)
        while True:
            try:
                router.submit(
                    trace.workload, iterations=trace.iterations, slo=trace.slo
                )
                break
            except (FleetAdmissionError, QueueFullError):
                # Typed backpressure: serve, then retry the same arrival.
                absorb(router.pump())
        submitted += 1
        if submitted % pump_every == 0:
            absorb(router.pump())
    absorb(router.drain())
    wall_seconds = time.perf_counter() - started

    accounting = router.accounting()
    if accounting["lost"] != 0:
        raise RuntimeError(f"fleet lost requests: {accounting}")
    workers = [w.snapshot() for w in router.workers.values()]
    executed = sum(w["batches_executed"] for w in workers)
    reused = sum(w["sim_batches_reused"] for w in workers)
    report: Dict[str, Any] = new_report("fleet", {
        "num_requests": num_requests,
        "num_workers": len(router.workers),
        "live_workers": sum(
            1 for w in router.workers.values() if w.alive
        ),
        "workloads": generator.workloads,
        "seed": generator.seed,
        "mean_interarrival_units": generator.mean_interarrival_units,
        "kill_worker_id": kill_worker_id,
        "kill_after": kill_after if kill_worker_id is not None else None,
        "rerouted_on_kill": rerouted,
        "accounting": accounting,
        "latency_units": {
            "overall": _percentiles(overall),
            **{
                slo.value: _percentiles(values)
                for slo, values in per_class.items()
            },
        },
        "cache": router.cache_summary(),
        # Batches the shards executed: simulated, or served from a
        # stored trace.
        "batches": {
            "executed": executed,
            "simulated": executed - reused,
            "reused": reused,
        },
        "workers": workers,
        "wall_seconds": wall_seconds,
        "requests_per_second": (
            len(overall) / wall_seconds if wall_seconds > 0 else 0.0
        ),
    })
    return report
