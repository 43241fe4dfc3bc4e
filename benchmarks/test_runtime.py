"""Benchmark RT: the serving runtime's two headline claims.

1. **Cached compilation is >= 10x faster than cold.** The plan cache turns
   the full pipeline (retiming analysis + DP allocation + width search)
   into a dictionary lookup; on the benchmark workloads the measured gap
   is typically 2-3 orders of magnitude, so the 10x bar has wide margin.
2. **Session results are bit-identical to the direct path.** The
   compile-once runtime is a pure amortization: makespan, traffic and
   energy must match ``ParaConv(...).run()`` + ``ScheduleExecutor`` run
   from scratch, number for number.
"""

from __future__ import annotations

import statistics
import time

import pytest

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.runtime.plan_cache import PlanCache, plan_key_for
from repro.runtime.server import BatchingServer, QueueFullError
from repro.runtime.session import InferenceSession, direct_batch
from repro.sim.executor import ScheduleExecutor

WORKLOAD = "flower"  # a mid-size Table 1 benchmark


def _best_of(fn, repeats: int = 3) -> float:
    """Median wall time of ``fn`` over ``repeats`` runs."""
    times = []
    for _ in range(repeats):
        started = time.perf_counter()
        fn()
        times.append(time.perf_counter() - started)
    return statistics.median(times)


@pytest.mark.paper_artifact("runtime")
def test_warm_compile_at_least_10x_faster_than_cold(quick_machine, capsys):
    graph = load_workload(WORKLOAD)
    cache = PlanCache(capacity=8)
    key = plan_key_for(graph, quick_machine)

    def cold():
        cache.clear()
        cache.get_or_compile(
            key, graph, lambda: ParaConv(quick_machine).run(graph)
        )

    def warm():
        plan = cache.get(key, graph)
        assert plan is not None

    cold_seconds = _best_of(cold)
    # leave the cache populated, then measure lookups
    warm_seconds = _best_of(warm)
    speedup = cold_seconds / warm_seconds
    with capsys.disabled():
        print(
            f"\n[runtime] cold compile {cold_seconds * 1e3:.2f} ms, warm "
            f"lookup {warm_seconds * 1e6:.1f} us -> {speedup:.0f}x"
        )
    assert speedup >= 10.0, (
        f"plan cache must amortize compilation: only {speedup:.1f}x"
    )


@pytest.mark.paper_artifact("runtime")
@pytest.mark.parametrize("iterations", [1, 10, 25])
def test_session_bit_identical_to_direct_path(quick_machine, iterations):
    graph = load_workload(WORKLOAD)
    session = InferenceSession(graph, quick_machine, cache=PlanCache())
    batch = session.run(iterations)
    direct = direct_batch(graph, quick_machine, iterations)
    assert batch.analytic_makespan == direct.analytic_makespan
    assert batch.realized_makespan == direct.realized_makespan
    assert batch.stats == direct.stats
    assert batch.energy == direct.energy
    assert batch.cache_spills == direct.cache_spills
    assert batch.max_lateness == direct.max_lateness


@pytest.mark.paper_artifact("runtime")
def test_disk_hydrated_plan_identical_to_fresh_compile(quick_machine, tmp_path):
    """Compile -> persist -> hydrate in a fresh cache -> identical run."""
    graph = load_workload(WORKLOAD)
    warm = PlanCache(capacity=4, disk_dir=tmp_path)
    InferenceSession(graph, quick_machine, cache=warm).run(5)

    hydrated_cache = PlanCache(capacity=4, disk_dir=tmp_path)
    session = InferenceSession(graph, quick_machine, cache=hydrated_cache)
    batch = session.run(5)
    assert session.compilations == 0
    assert hydrated_cache.stats.disk_hits == 1

    reference = ParaConv(quick_machine).run(graph)
    trace = ScheduleExecutor(quick_machine).execute(
        reference, iterations=5
    )
    assert batch.realized_makespan == trace.realized_makespan
    assert batch.stats == trace.stats


@pytest.mark.paper_artifact("runtime")
def test_server_amortizes_and_survives_overload(quick_machine, capsys):
    """End-to-end: overload a bounded queue, drain, report percentiles."""
    server = BatchingServer(
        quick_machine, cache=PlanCache(capacity=8), max_queue=8, batch_window=4
    )
    rejected = 0
    for _ in range(24):
        try:
            server.submit(WORKLOAD)
        except QueueFullError:
            rejected += 1
            server.drain()
            server.submit(WORKLOAD)
    server.drain()
    results = server.results
    assert len(results) == 24
    assert rejected >= 1, "overload must trip backpressure at queue=8"
    # exactly one plan compilation for the whole stream
    assert server.cache.stats.misses == 1
    hist = server.metrics.histogram("sim_latency_units")
    assert hist.count == 24
    with capsys.disabled():
        print(
            f"\n[runtime] served 24 requests ({rejected} rejections), "
            f"sim latency p50={hist.p50:.0f} p95={hist.p95:.0f} "
            f"p99={hist.p99:.0f} units"
        )
