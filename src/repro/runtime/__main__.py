"""Serving-runtime CLI.

Usage::

    python -m repro.runtime warmup [--pes N] [--workloads A B ...]
    python -m repro.runtime bench <workload> [--requests N] [--iterations K]
    python -m repro.runtime stats --disk DIR

``warmup`` compiles the benchmark plans into the cache, one by one —
pass ``--disk`` to persist them; ``bench`` drives the batching server with
a stream of requests and prints the latency/throughput report; ``stats``
inspects a persistent plan store.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import TYPE_CHECKING, List, Optional

from repro.cnn.workloads import PAPER_BENCHMARKS, WORKLOADS
from repro.core.allocation import ALLOCATORS
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer, QueueFullError
from repro.runtime.session import FaultRetryExhausted
from repro.runtime.workers import warm_cache

if TYPE_CHECKING:  # pragma: no cover — annotation-only import
    from repro.pim.faults import FaultModel


def positive_int(text: str) -> int:
    """argparse type: strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--pes", type=positive_int, default=32,
                        help="PE count (default 32)")
    parser.add_argument("--iterations", type=positive_int, default=1000,
                        help="width-search iteration count N (default 1000)")
    parser.add_argument("--allocator", default="dp", choices=sorted(ALLOCATORS),
                        help="cache allocator (default dp)")
    parser.add_argument("--disk", metavar="DIR", default=None,
                        help="persistent plan-store directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runtime",
        description="Compile-once inference-serving runtime.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    warmup = sub.add_parser(
        "warmup", help="compile workload plans into the cache"
    )
    _add_machine_args(warmup)
    warmup.add_argument(
        "--workloads", nargs="+", metavar="NAME", default=None,
        help="workloads to warm (default: the 12 paper benchmarks)",
    )

    bench = sub.add_parser(
        "bench", help="serve a request stream and report latency/throughput"
    )
    _add_machine_args(bench)
    bench.add_argument("workload", help="workload name to serve")
    bench.add_argument("--requests", type=positive_int, default=32,
                       help="requests to submit (default 32)")
    bench.add_argument("--batch-iterations", type=positive_int, default=1,
                       help="inference iterations per request (default 1)")
    bench.add_argument("--queue", type=positive_int, default=64,
                       help="admission-queue bound (default 64)")
    bench.add_argument("--window", type=positive_int, default=8,
                       help="batching window (default 8)")
    bench.add_argument("--sim-mode", choices=("full", "steady"),
                       default="steady",
                       help="simulation mode: 'steady' fingerprints "
                       "the machine and fast-forwards converged rounds "
                       "(default), 'full' is the event-by-event oracle")
    bench.add_argument("--fault-pe", type=int, metavar="ID", default=None,
                       help="inject a PE failure: this PE dies at the "
                       "--fault-at iteration boundary of every batch")
    bench.add_argument("--fault-vault", type=int, metavar="ID", default=None,
                       help="inject an eDRAM vault failure at --fault-at")
    bench.add_argument("--fault-at", type=int, default=1, metavar="N",
                       help="iteration boundary at which the injected "
                       "unit dies (0 = dead from the start; default 1)")
    bench.add_argument("--max-retries", type=int, default=3,
                       help="failover budget per batch (default 3)")
    bench.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")

    stats = sub.add_parser("stats", help="inspect a persistent plan store")
    stats.add_argument("--disk", metavar="DIR", required=True,
                       help="plan-store directory to inspect")
    return parser


def _machine(args: argparse.Namespace) -> PimConfig:
    return PimConfig(num_pes=args.pes, iterations=args.iterations)


def cmd_warmup(args: argparse.Namespace) -> int:
    names = args.workloads if args.workloads is not None else list(PAPER_BENCHMARKS)
    unknown = [n for n in names if n not in WORKLOADS]
    if unknown:
        known = ", ".join(sorted(WORKLOADS))
        print(f"unknown workloads {unknown}; known: {known}", file=sys.stderr)
        return 2
    cache = PlanCache(capacity=max(32, len(names)), disk_dir=args.disk)
    report = warm_cache(
        names,
        _machine(args),
        cache,
        allocator=args.allocator,
    )
    print(report.render())
    breakdown = _pass_breakdown(cache)
    if breakdown:
        print(breakdown)
    if args.disk:
        print(f"plans persisted to {args.disk} "
              f"({len(cache.disk_digests())} on disk)")
    return 0


def _pass_breakdown(cache: PlanCache) -> str:
    """Cumulative compile-pass wall time accumulated by a plan cache."""
    pass_seconds = cache.stats.pass_seconds
    if not pass_seconds:
        return ""
    lines = ["compile pass breakdown (cumulative):"]
    for name in sorted(pass_seconds, key=lambda n: -pass_seconds[n]):
        lines.append(f"  {name:<20} {pass_seconds[name] * 1e3:9.3f} ms")
    return "\n".join(lines)


def _fault_model(args: argparse.Namespace) -> Optional["FaultModel"]:
    """Build the injected fault trace from bench flags (None when clean)."""
    events = []
    if args.fault_pe is not None:
        events.append(("pe", args.fault_pe))
    if args.fault_vault is not None:
        events.append(("vault", args.fault_vault))
    if not events:
        return None
    from repro.pim.faults import FaultEvent, FaultModel

    return FaultModel(
        events=tuple(
            FaultEvent(args.fault_at, unit, unit_id)
            for unit, unit_id in events
        )
    )


def cmd_bench(args: argparse.Namespace) -> int:
    if args.workload not in WORKLOADS:
        known = ", ".join(sorted(WORKLOADS))
        print(f"unknown workload {args.workload!r}; known: {known}",
              file=sys.stderr)
        return 2
    cache = PlanCache(disk_dir=args.disk)
    server = BatchingServer(
        _machine(args),
        cache=cache,
        max_queue=args.queue,
        batch_window=args.window,
        allocator=args.allocator,
        sim_mode=args.sim_mode,
        fault_model=_fault_model(args),
        max_retries=args.max_retries,
    )
    rejected = 0
    try:
        for _ in range(args.requests):
            try:
                server.submit(args.workload, iterations=args.batch_iterations)
            except QueueFullError:
                rejected += 1
                server.drain()  # relieve backpressure, then keep submitting
                server.submit(args.workload, iterations=args.batch_iterations)
        server.drain()
    except FaultRetryExhausted as exc:
        print(f"serving gave up: {exc}", file=sys.stderr)
        return 1
    results = server.results  # includes batches drained mid-stream

    sim = server.metrics.histogram("sim_latency_units")
    wall = server.metrics.histogram("wall_latency_seconds")
    throughput = server.throughput_summary()
    snapshot = server.metrics.snapshot()
    counters = snapshot["counters"]
    engine = {
        "sim_mode": args.sim_mode,
        "batches_converged": counters.get("sim_batches_converged", 0),
        "rounds_fast_forwarded": counters.get("sim_rounds_fast_forwarded", 0),
        "batches_reused": counters.get("sim_batches_reused", 0),
    }
    fault_tolerance = {
        "faults_observed": counters.get("faults_observed", 0),
        "failover_recompiles": counters.get("failover_recompiles", 0),
        "batches_failed_over": counters.get("batches_failed_over", 0),
        "degraded_mode": snapshot["gauges"].get("degraded_mode", 0.0),
    }
    if args.json:
        print(json.dumps({
            "workload": args.workload,
            "requests": len(results),
            "rejected": rejected,
            "sim_latency_units": sim.summary(),
            "wall_latency_seconds": wall.summary(),
            "throughput": throughput,
            "engine": engine,
            "fault_tolerance": fault_tolerance,
            "plan_cache": cache.stats.as_dict(),
        }, indent=2))
        return 0
    print(f"served {len(results)} requests for {args.workload!r} "
          f"({rejected} transiently rejected by backpressure)")
    print(
        f"  sim latency (units) : p50={sim.p50:.0f} p95={sim.p95:.0f} "
        f"p99={sim.p99:.0f} max={sim.max:.0f}"
    )
    print(
        f"  wall latency (ms)   : p50={wall.p50 * 1e3:.2f} "
        f"p95={wall.p95 * 1e3:.2f} p99={wall.p99 * 1e3:.2f} "
        f"max={wall.max * 1e3:.2f}"
    )
    print(
        f"  throughput          : {throughput['sim_throughput']:.4f} inf/unit "
        f"simulated, {throughput['wall_throughput']:.1f} inf/s wall"
    )
    print(
        f"  engine              : {engine['sim_mode']} "
        f"({engine['batches_converged']:.0f} batches converged, "
        f"{engine['rounds_fast_forwarded']:.0f} rounds fast-forwarded, "
        f"{engine['batches_reused']:.0f} batches reused)"
    )
    if fault_tolerance["faults_observed"]:
        print(
            f"  fault tolerance     : "
            f"{fault_tolerance['faults_observed']:.0f} faults observed, "
            f"{fault_tolerance['failover_recompiles']:.0f} failover "
            f"recompiles, "
            f"{fault_tolerance['batches_failed_over']:.0f} batches failed "
            f"over, degraded_mode={fault_tolerance['degraded_mode']:g}"
        )
    print()
    print(server.stats_report())
    breakdown = _pass_breakdown(cache)
    if breakdown:
        print(breakdown)
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    store = Path(args.disk)
    if not store.is_dir():
        print(f"no plan store at {store}", file=sys.stderr)
        return 2
    from repro.runtime.plan_cache import plan_from_dict

    files = sorted(store.glob("*.json"))
    print(f"plan store {store}: {len(files)} plans")
    for path in files:
        try:
            plan = plan_from_dict(json.loads(path.read_text()))
        except Exception as exc:  # corrupt entries are reported, not fatal
            print(f"  {path.stem[:16]}…  UNREADABLE ({exc})")
            continue
        print(
            f"  {path.stem[:16]}…  {plan.graph.name:<20} "
            f"{plan.config.num_pes:>3} PEs  period={plan.period:<4} "
            f"R_max={plan.max_retiming:<3} groups={plan.num_groups}x"
            f"{plan.group_width}  {path.stat().st_size / 1024:.1f} KiB"
        )
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "warmup":
        return cmd_warmup(args)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "stats":
        return cmd_stats(args)
    return 2  # pragma: no cover — argparse enforces the choices


if __name__ == "__main__":
    sys.exit(main())
