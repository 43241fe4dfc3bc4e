"""Fleet CLI: trace-driven bench and ring inspection.

Usage::

    python -m repro.fleet bench [--workers 4] [--requests 1000000] ...
    python -m repro.fleet route [--workers 4] [--workloads a,b,c]

``bench`` drives a deterministic synthetic trace through a sharded fleet
(optionally killing a worker mid-run) and writes ``BENCH_fleet.json``
with per-SLO-class latency percentiles, cache hit ratios and exact
request accounting. Exits non-zero if any admitted request was lost.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from typing import Callable, Dict, List, Optional

import repro.cnn.workloads as cnn_workloads
from repro.cnn.workloads import WORKLOADS
from repro.core.allocation import ALLOCATORS
from repro.eval.bench_io import dump_bench
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig

from repro.fleet.loadgen import FleetLoadGenerator, run_bench
from repro.fleet.router import FleetRouter
from repro.fleet.slo import DEFAULT_SLO_POLICIES, SloClass, SloPolicy
from repro.fleet.store import SharedPlanStore
from repro.fleet.worker import shard_worker

# Bench defaults: paper workloads whose steady-state sim converges to a
# limit cycle at shard scale, so per-batch cost is O(1) in iterations and
# a million-request trace finishes in minutes.
DEFAULT_WORKLOADS = "flower,lenet5,stock-predict,string-matching"


def positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not an integer"
        ) from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.fleet",
        description="Sharded fleet serving: bench and routing inspection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser(
        "bench", help="run the trace-driven fleet bench"
    )
    bench.add_argument(
        "--workers", type=positive_int, default=4,
        help="number of fleet shards",
    )
    bench.add_argument(
        "--pes", type=positive_int, default=64,
        help="total PEs in the physical machine (split across shards)",
    )
    bench.add_argument(
        "--vaults", type=positive_int, default=32,
        help="total vaults in the physical machine",
    )
    bench.add_argument(
        "--requests", type=positive_int, default=1_000_000,
        help="trace length",
    )
    bench.add_argument(
        "--workloads", default=DEFAULT_WORKLOADS,
        help="comma-separated workload names",
    )
    bench.add_argument(
        "--batch-window", type=positive_int, default=512,
        help="per-shard batch window",
    )
    bench.add_argument(
        "--max-queue", type=positive_int, default=200_000,
        help="per-shard queue bound",
    )
    bench.add_argument(
        "--interarrival", type=positive_int, default=8,
        help="mean interarrival gap in simulated time units",
    )
    bench.add_argument(
        "--pump-every", type=positive_int, default=512,
        help="serve the fleet after every N submissions",
    )
    bench.add_argument(
        "--allocator", default="dp", choices=sorted(ALLOCATORS),
        help="cache-allocation strategy",
    )
    bench.add_argument(
        "--seed", type=int, default=0, help="trace seed"
    )
    bench.add_argument(
        "--no-kill", action="store_true",
        help="skip the mid-run worker kill (healthy-fleet bench)",
    )
    bench.add_argument(
        "--kill-after", type=positive_int, default=None,
        help="request index for the worker kill (default: halfway)",
    )
    bench.add_argument(
        "--deadline", type=positive_int, default=None,
        help="interactive-class dispatch deadline in time units "
             "(default: no shedding)",
    )
    bench.add_argument(
        "--store", default=None, metavar="DIR",
        help="shared plan-store directory (default: fresh temp dir)",
    )
    bench.add_argument(
        "--out", default="BENCH_fleet.json",
        help="report path ('-' for stdout only)",
    )
    bench.add_argument(
        "--json", action="store_true", help="print the report as JSON"
    )

    route = sub.add_parser(
        "route", help="print the ring assignment per workload"
    )
    route.add_argument("--workers", type=positive_int, default=4)
    route.add_argument("--pes", type=positive_int, default=64)
    route.add_argument("--vaults", type=positive_int, default=32)
    route.add_argument("--workloads", default=DEFAULT_WORKLOADS)
    route.add_argument(
        "--allocator", default="dp", choices=sorted(ALLOCATORS)
    )
    return parser


def parse_workloads(text: str) -> List[str]:
    names = [w.strip() for w in text.split(",") if w.strip()]
    unknown = [w for w in names if w not in WORKLOADS]
    if unknown:
        raise SystemExit(
            f"unknown workloads {unknown}; known: {', '.join(sorted(WORKLOADS))}"
        )
    if not names:
        raise SystemExit("no workloads given")
    return names


def build_fleet(
    num_workers: int,
    pes: int,
    vaults: int,
    store: SharedPlanStore,
    batch_window: int = 8,
    max_queue: int = 4096,
    allocator: str = "dp",
    policies=None,
) -> FleetRouter:
    """A router over ``num_workers`` equal shards of one physical machine.

    The router and every shard resolve workload names through one
    :func:`fleet_graph_loader`, so each workload's graph is loaded once
    per fleet. Plans stay per shard: each shard's cache hydrates its own.
    """
    machine = PimConfig(num_pes=pes, num_vaults=vaults)
    shards = machine.split(num_workers, split_vaults=True)
    load_graph = fleet_graph_loader()
    workers = [
        shard_worker(
            f"worker-{index}",
            shard,
            store=store,
            batch_window=batch_window,
            max_queue=max_queue,
            allocator=allocator,
            graph_loader=load_graph,
        )
        for index, shard in enumerate(shards)
    ]
    return FleetRouter(workers, policies=policies, graph_loader=load_graph)


def fleet_graph_loader() -> Callable[[str], TaskGraph]:
    """A workload-name resolver that loads each graph once, then shares it.

    The memo belongs to the returned loader alone, so it lives exactly
    as long as the fleet holding it and the router and every shard share
    one graph object per workload. A new fleet gets new copies of the
    process's workload templates (:func:`~repro.cnn.workloads.load_workload`)
    rather than building its graphs again.
    """
    graphs: Dict[str, TaskGraph] = {}

    def load_graph(name: str) -> TaskGraph:
        graph = graphs.get(name)
        if graph is None:
            # Looked up through the module on every load, so a wrapper
            # installed on load_workload sees each one.
            graph = graphs[name] = cnn_workloads.load_workload(name)
        return graph

    return load_graph


def cmd_bench(args: argparse.Namespace) -> int:
    workloads = parse_workloads(args.workloads)
    policies = None
    if args.deadline is not None:
        policies = dict(DEFAULT_SLO_POLICIES)
        policies[SloClass.INTERACTIVE] = SloPolicy(
            max_queue_depth=policies[SloClass.INTERACTIVE].max_queue_depth,
            deadline_units=args.deadline,
        )
    if args.store is not None:
        store_dir: Optional[tempfile.TemporaryDirectory] = None
        store = SharedPlanStore(args.store)
    else:
        store_dir = tempfile.TemporaryDirectory(prefix="fleet-store-")
        store = SharedPlanStore(store_dir.name)
    try:
        router = build_fleet(
            args.workers,
            args.pes,
            args.vaults,
            store,
            batch_window=args.batch_window,
            max_queue=args.max_queue,
            allocator=args.allocator,
            policies=policies,
        )
        kill_worker_id = (
            None if args.no_kill or args.workers < 2
            else f"worker-{args.workers - 1}"
        )
        report = run_bench(
            router,
            FleetLoadGenerator(
                workloads,
                mean_interarrival_units=args.interarrival,
                seed=args.seed,
            ),
            num_requests=args.requests,
            kill_worker_id=kill_worker_id,
            kill_after=args.kill_after,
            pump_every=args.pump_every,
        )
    finally:
        if store_dir is not None:
            store_dir.cleanup()

    if args.out != "-":
        dump_bench(args.out, report)
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        accounting = report["accounting"]
        print(
            f"fleet bench: {report['num_requests']} requests over "
            f"{report['num_workers']} workers "
            f"({report['live_workers']} live at end)"
        )
        if report["kill_worker_id"] is not None:
            print(
                f"  killed {report['kill_worker_id']} after request "
                f"{report['kill_after']}; rerouted "
                f"{report['rerouted_on_kill']} queued requests"
            )
        for name in ("admitted", "served", "shed", "rejected_at_admission",
                     "rerouted", "lost"):
            print(f"  {name:>22}: {accounting[name]}")
        for label, stats in report["latency_units"].items():
            if not stats["count"]:
                continue
            print(
                f"  latency[{label}]: p50={stats['p50']:.0f} "
                f"p95={stats['p95']:.0f} p99={stats['p99']:.0f} "
                f"(n={stats['count']})"
            )
        cache = report["cache"]
        print(
            f"  plan cache: hit_rate={cache['hit_rate']:.4f} "
            f"(hits={cache['hits']} misses={cache['misses']} "
            f"disk_hits={cache['disk_hits']})"
        )
        batches = report["batches"]
        print(
            f"  batches: executed={batches['executed']} "
            f"simulated={batches['simulated']} reused={batches['reused']}"
        )
        print(
            f"  wall: {report['wall_seconds']:.2f}s "
            f"({report['requests_per_second']:.0f} req/s)"
        )
        if args.out != "-":
            print(f"  report: {args.out}")
    return 0 if report["accounting"]["lost"] == 0 else 1


def cmd_route(args: argparse.Namespace) -> int:
    workloads = parse_workloads(args.workloads)
    with tempfile.TemporaryDirectory(prefix="fleet-route-") as tmp:
        router = build_fleet(
            args.workers,
            args.pes,
            args.vaults,
            SharedPlanStore(tmp),
            allocator=args.allocator,
        )
        print(
            f"ring: {len(router.workers)} workers x "
            f"{router.ring.replicas} replicas"
        )
        for workload in workloads:
            key = router.affinity_key(workload)
            print(
                f"  {workload:>20} -> {router.worker_for(workload).worker_id}"
                f"  (plan {key[:12]})"
            )
        spread = router.ring.spread(
            [router.affinity_key(w) for w in workloads]
        )
        print(f"  spread: {dict(sorted(spread.items()))}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "bench":
        return cmd_bench(args)
    if args.command == "route":
        return cmd_route(args)
    raise SystemExit(f"unknown command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
