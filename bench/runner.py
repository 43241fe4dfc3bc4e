"""One workload in its own process: set up, measure, check, trace.

``python -m bench`` starts this module once per workload::

    python -m bench.runner NAME --seed S --seconds T [--trace 0|1]
                           [--trace-dir DIR] [--regen-expected]

and reads the JSON result it prints as its last line of standard output.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import EXPECTED_PATH, SRC
from bench.hostspeed import Timing, timed
from bench.tracing import DRIVER_LAYER, Tracer, traced, write_chrome_trace
from bench.workloads import (
    Rep,
    ServeWorkload,
    Workload,
    build_workloads,
    percentile,
    tail_quantile,
)

#: cold set-ups per run; ``setup_s`` is their median. A serving set-up
#: lasts ~65 ms, so one host hiccup moves it: with 5 set-ups about one run
#: in eleven had an interquartile spread above the 25 % bound, with 9
#: about one in twenty-two.
SETUPS = 9

#: ``repro.compiler.PASS_REGISTRY`` names: one per-layer share each.
PASS_NAMES = (
    "validate-graph", "compact-kernel", "analyze-edges", "zero-dr-prepass",
    "dp-allocate", "liveness-reweight", "solve-retiming", "emit-schedule",
    "validate-schedule",
)
#: every layer whose self time the traced run reports, driver last.
LAYERS = (
    "cnn.load_workload",
    "compiler.run",
    *(f"compiler.pass.{name}" for name in PASS_NAMES),
    "runtime.plan_cache.lookup",
    "runtime.session.run",
    "runtime.server.step",
    "sim.execute",
    "fleet.submit",
    "fleet.pump",
    "fleet.shed",
    "fleet.drain",
    DRIVER_LAYER,
)
#: per-repetition counters copied from the serving workloads' results.
SERVE_COUNTS = {
    "runtime.plan_cache.hits": "count",
    "runtime.plan_cache.misses": "count",
    "runtime.plan_cache.disk_hits": "count",
    "runtime.plan_cache.disk_writes": "count",
    "runtime.server.batches": "count",
    "fleet.requests_rerouted": "count",
    "fleet.admission_retries": "count",
    "fleet.queue_wait_units_p50": "units",
    "fleet.queue_wait_units_p99": "units",
    "fleet.service_units_p99": "units",
    "fleet.latency_units_p50": "units",
    "fleet.latency_units_p99": "units",
}


def measure(
    workload: Workload, seconds: float, min_reps: int,
    tracer: Optional[Tracer] = None,
) -> List[Rep]:
    """Repeat until ``min_reps`` are done and ``seconds`` have passed."""
    reps: List[Rep] = []
    started = time.perf_counter()
    with traced(tracer):
        while len(reps) < min_reps or time.perf_counter() - started < seconds:
            rep, timing = timed(workload.rep)
            rep.timing = timing
            reps.append(rep)
    return reps


def check_reps(workload: Workload, reps: List[Rep], expected: Dict[str, Any]) -> None:
    """Frozen values, then repetition-to-repetition determinism."""
    for rep in reps:
        workload.check(rep, expected)
    reference = next((r for r in reps if not r.failed), None)
    for index, rep in enumerate(reps):
        if reference is None or rep.failed or rep is reference:
            continue
        if (rep.outputs, rep.exact) != (reference.outputs, reference.exact):
            rep.failed = rep.ops
            rep.problems.append(
                f"repetition {index} differs from the first correct one"
            )


def _value(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def _latency_ms(rep: Rep, q: float) -> float:
    """Host-normalized percentile of one repetition's operation latencies.

    Operation latencies are wall times; the repetition's ratio of work to
    wall seconds takes the probe runs inside them back out.
    """
    timing = rep.timing
    scale = timing.work / timing.elapsed / timing.factor if timing.elapsed else 1.0
    return percentile(rep.latencies, q) * scale * 1e3


def end_to_end(
    workload: Workload, setups: List[Timing], reps: List[Rep], rss_mb: float,
) -> Dict[str, Dict[str, Any]]:
    """``metrics`` (``BENCHMARK.json`` end_to_end), ``samples`` per metric
    for ``compare``, ``exact`` simulated results and printed ``details``.

    Times are host-normalized (:mod:`bench.hostspeed`). The raw seconds
    are kept too, as ``setup_s_raw`` and ``run_s_raw`` samples and
    medians: the probe runs in the process under test, so a change that
    slows the probe as well (a larger heap, more GC work) hides part of
    its own cost from the normalized times, never from the raw ones.
    """
    ok = [r for r in reps if r.latencies]
    samples = {
        "setup_s": [t.normalized for t in setups],
        "run_s": [r.seconds for r in reps],
        "latency_ms_p50": [_latency_ms(r, 0.5) for r in ok],
        "peak_rss_mb": [rss_mb],
        "setup_s_raw": [t.work for t in setups],
        "run_s_raw": [r.timing.work for r in reps],
    }
    units = {"setup_s": "s", "run_s": "s", "latency_ms_p50": "ms",
             "peak_rss_mb": "MB"}
    metrics = {
        name: _value(statistics.median(samples[name]), unit)
        for name, unit in units.items()
    }
    attempted = sum(r.ops for r in reps)
    failed = sum(r.failed for r in reps)
    details = {
        "error_rate": _value(failed / attempted, "failed/attempted"),
        "setup_s_raw": _value(statistics.median(samples["setup_s_raw"]), "s"),
        "run_s_raw": _value(statistics.median(samples["run_s_raw"]), "s"),
        "host_factor": _value(
            statistics.median(r.timing.factor for r in reps), "x"
        ),
    }
    tail = tail_quantile(min(len(r.latencies) for r in ok))
    if tail is not None:
        details[f"host_latency_ms_p{round(tail * 100)}"] = _value(
            statistics.median(_latency_ms(r, tail) for r in ok), "ms"
        )
    if isinstance(workload, ServeWorkload):
        details["serve_rps"] = _value(
            statistics.median(r.ops / r.seconds for r in reps), "req/s"
        )
    exact = {
        name: _value(value, "units") for name, value in reps[0].exact.items()
    }
    return {"metrics": metrics, "samples": samples, "exact": exact,
            "details": details}


def layer_view(
    tracer: Tracer, traced_reps: List[Rep], untraced_reps: List[Rep]
) -> Dict[str, Any]:
    """Per-layer self times (``layers``) and the per_layer metrics.

    Spans time wall seconds, probe runs included; ``self_s`` is scaled to
    host-normalized seconds by the traced pass's overall ratio, so the
    layers still add up.
    """
    count = len(traced_reps)
    wall = sum(r.timing.elapsed for r in traced_reps)
    scale = sum(r.seconds for r in traced_reps) / wall
    self_seconds = tracer.self_seconds()
    self_seconds[DRIVER_LAYER] = wall - tracer.root_seconds()
    calls = tracer.calls()
    layers = {
        name: {
            "self_s": seconds * scale / count,
            "calls": calls.get(name, 0) / count,
            "share_pct": 100.0 * seconds / wall,
        }
        for name, seconds in sorted(self_seconds.items())
    }
    metrics = {
        f"{name}.share": _value(100.0 * self_seconds.get(name, 0.0) / wall, "%")
        for name in LAYERS
    }
    counter = {name: value / count for name, value in tracer.counters.items()}
    per_rep = lambda name: counter.get(name, 0)  # noqa: E731
    explored = per_rep("compiler.widths_explored")
    pruned = per_rep("compiler.widths_pruned")
    sim_calls = calls.get("sim.execute", 0) / count
    sim_seconds = self_seconds.get("sim.execute", 0.0) * scale / count
    metrics.update({
        "bench.traced_wall": _value(wall * scale / count, "s"),
        "bench.tracing_overhead": _value(
            100.0 * (
                statistics.median(r.seconds for r in traced_reps)
                / statistics.median(r.seconds for r in untraced_reps) - 1.0
            ),
            "%",
        ),
        "cnn.load_workload.calls": _value(
            calls.get("cnn.load_workload", 0) / count, "count"
        ),
        "compiler.run.calls": _value(calls.get("compiler.run", 0) / count, "count"),
        "compiler.widths_explored": _value(explored, "count"),
        "compiler.widths_pruned": _value(pruned, "count"),
        "compiler.prune_ratio": _value(
            100.0 * pruned / (explored + pruned) if explored + pruned else 0.0,
            "%",
        ),
        "sim.execute.calls": _value(sim_calls, "count"),
        "sim.events": _value(per_rep("sim.events"), "count"),
        "sim.events_per_host_s": _value(
            per_rep("sim.events") / sim_seconds if sim_seconds else 0.0, "1/s"
        ),
        "sim.rounds_simulated": _value(per_rep("sim.rounds_simulated"), "count"),
        "sim.rounds_fast_forwarded": _value(
            per_rep("sim.rounds_fast_forwarded"), "count"
        ),
        "sim.converged_share": _value(
            100.0 * per_rep("sim.converged") / sim_calls if sim_calls else 0.0,
            "%",
        ),
        "sim.cache_spills": _value(per_rep("sim.cache_spills"), "count"),
        "sim.realized_units": _value(per_rep("sim.realized_units"), "units"),
    })
    counts = traced_reps[0].counts
    for name, unit in SERVE_COUNTS.items():
        metrics[name] = _value(counts.get(name, 0), unit)
    hits = counts.get("runtime.plan_cache.hits", 0)
    lookups = hits + counts.get("runtime.plan_cache.misses", 0)
    batches = counts.get("runtime.server.batches", 0)
    metrics["runtime.plan_cache.hit_rate"] = _value(
        100.0 * hits / lookups if lookups else 0.0, "%"
    )
    metrics["runtime.server.batch_size_mean"] = _value(
        counts.get("runtime.server.requests", 0) / batches if batches else 0.0,
        "requests",
    )
    return {"layers": layers, "layer_metrics": metrics,
            "traced_wall_s": wall * scale}


def run(
    workload: Workload,
    seed: int,
    seconds: float,
    trace: bool = False,
    trace_dir: Optional[Path] = None,
    expected: Optional[Dict[str, Any]] = None,
) -> Dict[str, Any]:
    """Measure one workload; ``expected`` None skips the frozen values."""
    tracer = Tracer() if trace else None
    traced_reps: List[Rep] = []
    try:
        workload.prepare(seed)
        setups = [workload.timed_setup() for _ in range(SETUPS)]
        reps = measure(workload, seconds, workload.min_reps)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            traced_reps = measure(workload, 0.0, len(reps), tracer)
    finally:
        workload.close()
    check_reps(workload, reps + traced_reps, expected or {})
    problems = [p for r in reps + traced_reps for p in r.problems]
    if not any(r.latencies for r in reps):
        raise RuntimeError(
            f"{workload.name}: no operation completed: {problems[:5]}"
        )
    result: Dict[str, Any] = {
        "workload": workload.name,
        "seed": seed,
        "reps": len(reps),
        "attempted": sum(r.ops for r in reps + traced_reps),
        "failed": sum(r.failed for r in reps + traced_reps),
        "problems": problems[:20],
        **end_to_end(workload, setups, reps, rss_mb),
    }
    if expected is None:
        result["frozen"] = workload.frozen(reps[0])
    if tracer is not None:
        result.update(layer_view(tracer, traced_reps, reps))
        if trace_dir is not None:
            trace_dir.mkdir(parents=True, exist_ok=True)
            write_chrome_trace(
                tracer, str(trace_dir / f"{workload.name}.trace.json")
            )
    return result


def load_expected() -> Dict[str, Any]:
    if not EXPECTED_PATH.is_file():
        return {}
    with open(EXPECTED_PATH) as handle:
        return json.load(handle)


def main(argv: Optional[List[str]] = None) -> int:
    workloads = build_workloads()
    parser = argparse.ArgumentParser(prog="python -m bench.runner")
    parser.add_argument("workload", choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, default=None)
    parser.add_argument("--regen-expected", action="store_true")
    args = parser.parse_args(argv)

    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        print(f"error: repro imported from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    expected = load_expected()
    result = run(
        workloads[args.workload],
        seed=args.seed,
        seconds=args.seconds,
        trace=bool(args.trace),
        trace_dir=args.trace_dir,
        expected=None if args.regen_expected else expected,
    )
    if args.regen_expected and result["failed"] == 0:
        expected.update(result.pop("frozen"))
        with open(EXPECTED_PATH, "w") as handle:
            json.dump(expected, handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
