"""Fleet differential: sharded serving must equal single-server serving.

The fleet tier claims it adds *distribution* without changing *results*:
routing, admission, failover and the shared plan store are orthogonal to
what each request computes. This module machine-checks three properties
end to end on a real traced run (including a mid-trace worker kill):

1. **Per-request replay equivalence** — every batch a shard executed is
   replayed, with identical composition, on a fresh standalone
   :class:`~repro.runtime.server.BatchingServer` over the same logical
   machine; each request's ``sim_latency`` and batch size must match
   exactly. The fleet adds queueing *delay*, never different *service*.
2. **Request conservation** — accounting closes (``lost == 0``) and every
   served fleet id is unique: worker death re-routes, never drops or
   duplicates.
3. **Warm everywhere** — with plan-affinity routing over a shared store,
   the whole fleet compiles each distinct plan exactly once (the store
   holds exactly one artifact per workload), and a cold replica shard
   bound to the same store serves every workload with *zero* compiles —
   every miss in its memory tier is a disk hit.

A mismatch is a fleet bug (routing broke plan identity, failover spliced
a queue, the store published a torn artifact), which is why this check
rides in ``python -m repro.verify --fleet``.
"""

from __future__ import annotations

import argparse
import tempfile
from typing import Dict, List, Mapping, Optional, Sequence

from repro.pim.config import PimConfig
from repro.fleet.loadgen import FleetLoadGenerator
from repro.fleet.router import FleetRouter
from repro.fleet.slo import SloClass
from repro.fleet.store import SharedPlanStore
from repro.fleet.worker import FleetWorker
from repro.verify.harness import (
    Battery,
    CaseReport,
    option,
    positive_int,
    replay_batches,
    run_case,
)
from repro.verify.validator import ScheduleValidator

__all__ = ["FLEET_BATTERY", "fleet_differential", "fleet_verdict"]

#: Default workloads: paper models whose steady-state sim converges, so
#: the differential runs in seconds (mirrors the fleet bench defaults).
DEFAULT_FLEET_WORKLOADS = (
    "flower",
    "lenet5",
    "stock-predict",
    "string-matching",
)


def fleet_verdict(facts: Mapping[str, object]) -> List[str]:
    """The fleet invariants over one run's facts.

    Accounting closes (``lost == 0``) with no served fleet id duplicated
    or missing; the shared store holds one plan per workload, the fleet
    compiled each exactly once, and a cold replica served every workload
    from the store with zero compiles.
    """
    failures = []
    workloads = facts.get("workloads")
    if facts.get("lost") != 0:
        failures.append(f"lost={facts.get('lost')} (want 0)")
    for name in ("duplicate_fleet_ids", "missing_fleet_ids"):
        if facts.get(name):
            failures.append(f"{name}={facts[name]}")
    for name in ("store_plans", "fleet_compiles", "cold_replica_disk_hits"):
        if facts.get(name) != workloads:
            failures.append(
                f"{name}={facts.get(name)} (want one per workload: "
                f"{workloads})"
            )
    if facts.get("cold_replica_compiles") != 0:
        failures.append(
            f"cold replica compiled {facts.get('cold_replica_compiles')} "
            f"plan(s) (want 0)"
        )
    return failures


def fleet_differential(
    workloads: Sequence[str] = DEFAULT_FLEET_WORKLOADS,
    num_workers: int = 4,
    num_pes: int = 64,
    requests: int = 400,
    batch_window: int = 16,
    seed: int = 0,
    kill_worker: bool = True,
    allocator: str = "dp",
    store_dir: Optional[str] = None,
) -> CaseReport:
    """Run the fleet-vs-single-server differential.

    Drives a deterministic trace through a sharded fleet over one
    physical machine (killing the last shard mid-trace when
    ``kill_worker``), then checks replay equivalence, request
    conservation and the warm-everywhere property. ``store_dir`` may pin
    the shared store to a caller-owned directory; a temp dir is used and
    cleaned up otherwise.
    """
    label = f"{num_workers}w x {len(workloads)}wl N={requests}"
    with run_case("fleet", label, fleet_verdict) as report, \
            tempfile.TemporaryDirectory(prefix="fleet-diff-") as tmp:
        if num_pes % num_workers != 0:
            # Unequal shards have different logical shapes and therefore
            # different plan identities — the warm-everywhere property only
            # holds between shape-identical shards.
            raise ValueError(
                f"num_pes ({num_pes}) must divide evenly into "
                f"{num_workers} workers"
            )
        store = SharedPlanStore(store_dir or tmp)
        shards = PimConfig(num_pes=num_pes).split(
            num_workers, split_vaults=True
        )
        workers = [
            FleetWorker(
                f"worker-{index}",
                shard,
                store=store,
                batch_window=batch_window,
                max_queue=max(4 * requests, 64),
                allocator=allocator,
            )
            for index, shard in enumerate(shards)
        ]
        router = FleetRouter(workers)
        generator = FleetLoadGenerator(list(workloads), seed=seed)
        report.facts["workloads"] = len(workloads)

        served_ids: List[int] = []
        admitted = 0
        kill_at = requests // 2 if kill_worker and num_workers > 1 else None
        for trace in generator.requests(requests):
            router.advance_to(trace.arrival_units)
            if admitted == kill_at:
                victim = workers[-1].worker_id
                report.facts["killed_worker"] = victim
                report.facts["rerouted"] = router.kill_worker(victim)
            router.submit(trace.workload, slo=trace.slo)
            admitted += 1
            if admitted % batch_window == 0:
                served_ids.extend(r.fleet_id for r in router.pump())
        served_ids.extend(r.fleet_id for r in router.drain())
        accounting = router.accounting()
        report.facts["served"] = accounting["served"]
        report.facts["lost"] = accounting["lost"]

        # 2. conservation: unique fleet ids, none missing.
        seen: Dict[int, int] = {}
        for fleet_id in served_ids:
            seen[fleet_id] = seen.get(fleet_id, 0) + 1
        report.facts["duplicate_fleet_ids"] = sorted(
            fleet_id for fleet_id, count in seen.items() if count > 1
        )
        report.facts["missing_fleet_ids"] = sorted(
            fleet_id for fleet_id in range(1, admitted + 1)
            if fleet_id not in seen
        )

        # 1. per-request replay equivalence, shard by shard.
        for worker in workers:
            replay_batches(
                report,
                worker.worker_id,
                worker.server.results,
                worker.serving_config,
                batch_window,
                allocator,
            )

        # 3. warm everywhere: one compile per plan fleet-wide, and a
        # cold replica shard served entirely from the shared store.
        report.facts["store_plans"] = len(store)
        # A disk hit counts as a cache *hit* (hydrated, not compiled),
        # so misses count exactly the compiles a shard performed.
        report.facts["fleet_compiles"] = sum(
            w.cache.stats.misses for w in workers
        )
        replica = FleetWorker(
            "cold-replica",
            shards[0],
            store=store,
            batch_window=batch_window,
            allocator=allocator,
        )
        for index, workload in enumerate(workloads):
            replica.submit(
                workload,
                iterations=1,
                slo=SloClass.STANDARD,
                arrival_units=0,
                fleet_id=-(index + 1),
            )
            replica.pump(0)
        report.facts["cold_replica_compiles"] = replica.cache.stats.misses
        report.facts["cold_replica_disk_hits"] = replica.cache.stats.disk_hits
    return report


def run_fleet_battery(
    args: argparse.Namespace, validator: ScheduleValidator
) -> List[CaseReport]:
    """One traced fleet run across a mid-trace worker kill."""
    return [fleet_differential(
        num_workers=args.fleet_workers,
        requests=args.fleet_requests,
        seed=args.seed,
    )]


FLEET_BATTERY = Battery(
    name="fleet",
    help="differentially verify the fleet tier: every batch a shard served "
         "must replay identically on a standalone server, request "
         "accounting must close across a mid-trace worker kill, and a cold "
         "replica must serve every plan from the shared store with zero "
         "compiles",
    run=run_fleet_battery,
    options=(
        option("--fleet-workers", type=positive_int, default=4,
               help="shard count for the --fleet stage (default 4)"),
        option("--fleet-requests", type=positive_int, default=400,
               help="trace length for the --fleet stage (default 400)"),
    ),
)
