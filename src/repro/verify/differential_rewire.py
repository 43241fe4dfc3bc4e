"""Live-rewiring differential + seeded randwired property battery.

The serving stack claims that hot-swapping a served workload's graph is
*exactly* the failover recovery path with a non-fault trigger: after
:meth:`~repro.runtime.server.BatchingServer.rewire` the session serves
the same results a cold compile of the new graph would produce, queued
requests cross the cut-point without loss, and a repeat swap to a
previously served graph never recompiles. This module machine-checks
each claim:

1. serve a workload, queue more requests, then ``rewire`` at a declared
   cut-point (``drain``: queued requests served on the old plan first;
   ``reroute``: carried across and served on the new plan);
2. serve one post-swap batch and compare its
   :meth:`~repro.sim.executor.ExecutionTrace.aggregate_signature`
   field by field against an independent cold compile of the new graph
   executed on the full-unroll oracle engine (exact match);
3. close the request accounting — every admitted request must be served
   or still queued, ``lost == 0``;
4. swap back and forth once more and require zero ``swap_recompiles`` —
   both plans are warm in the content-addressed cache;
5. run the same zero-loss check through the fleet router (affinity
   remap on the new digest, queued requests rerouted with fleet
   identity intact, ``accounting()['lost'] == 0``).

Alongside rides the seeded randwired property battery: every ER/WS/BA
graph across a seed sweep must regenerate to an identical fingerprint
(pure function of the spec) and compile into a plan with zero
:class:`~repro.verify.validator.ScheduleValidator` errors — the
generators only emit legal workloads, so any violation is a bug by
definition.
"""

from __future__ import annotations

import argparse
import tempfile
from typing import List, Mapping, Optional

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.fleet.router import FleetRouter
from repro.fleet.store import SharedPlanStore
from repro.fleet.worker import FleetWorker
from repro.graph.randwired import (
    RandwiredSpec,
    randwired_graph,
    reseeded,
)
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer
from repro.verify.harness import (
    Battery,
    CaseReport,
    hold_to_cold_compile,
    machine,
    option,
    positive_int,
    run_case,
)
from repro.verify.validator import ScheduleValidator

__all__ = [
    "REWIRE_BATTERY",
    "fleet_rewire_case",
    "randwired_property_battery",
    "rewire_case",
    "rewire_differential",
    "rewire_verdict",
]


def rewire_verdict(facts: Mapping[str, object]) -> List[str]:
    """The rewire invariants over one case's facts: no admitted request
    lost across the cut-point, and repeat swaps find every plan warm
    (``repeat_recompiles`` on a server, ``repeat_warm`` on a fleet)."""
    failures = []
    if facts.get("lost") != 0:
        failures.append(f"lost={facts.get('lost')} (want 0)")
    if "repeat_warm" in facts:
        if facts["repeat_warm"] is not True:
            failures.append("a repeat swap recompiled a warm plan")
    elif facts.get("repeat_recompiles") != 0:
        failures.append(
            f"repeat swaps recompiled {facts.get('repeat_recompiles')} "
            f"time(s) (want 0)"
        )
    return failures


def rewire_case(
    old_graph: TaskGraph,
    new_graph: TaskGraph,
    config: PimConfig,
    cut_point: str = "drain",
    iterations: int = 20,
    queued: int = 5,
    allocator: str = "dp",
    num_vaults: int = 32,
    validator: Optional[ScheduleValidator] = None,
) -> CaseReport:
    """Assert post-swap serving == cold compile of the new graph.

    The scenario: serve one warm batch of ``old_graph``, queue ``queued``
    more requests plus one bystander workload, swap to ``new_graph`` at
    ``cut_point``, drain everything, then serve one dedicated batch of
    ``iterations`` inferences and compare its aggregate signature against
    an independently compiled full-unroll execution of the new graph.
    """
    workload = old_graph.name
    bystander = f"{workload}-bystander"
    graphs = {workload: old_graph, bystander: old_graph}
    label = f"{workload}->{new_graph.name} [{cut_point}] N={iterations}"
    with run_case("rewire", label, rewire_verdict) as report:
        server = BatchingServer(
            config,
            cache=PlanCache(),
            batch_window=4,
            allocator=allocator,
            num_vaults=num_vaults,
            graph_loader=lambda name: graphs[name],
        )
        server.submit(workload, iterations=1)
        server.step()  # warm the old plan
        for _ in range(queued):
            server.submit(workload, iterations=1)
        server.submit(bystander, iterations=1)

        result = server.rewire(workload, new_graph, cut_point=cut_point)
        report.facts["drained"] = result.drained_requests
        report.facts["rerouted"] = result.rerouted
        server.drain()

        # Post-swap differential batch: one request, dedicated trace.
        server.submit(workload, iterations=iterations)
        server.drain()
        session = server.sessions()[workload]
        assert session.last_trace is not None
        hold_to_cold_compile(
            report,
            session.last_trace.aggregate_signature(),
            new_graph,
            config,
            iterations,
            allocator=allocator,
            num_vaults=num_vaults,
            validator=validator or ScheduleValidator(),
        )

        # Repeat swaps: old and new plans are both warm now, so neither
        # direction may recompile.
        recompiles_before = session.swap_recompiles
        server.rewire(workload, old_graph, cut_point=cut_point)
        server.drain()
        server.rewire(workload, new_graph, cut_point=cut_point)
        server.drain()
        report.facts["graph_swaps"] = session.graph_swaps
        report.facts["repeat_recompiles"] = (
            session.swap_recompiles - recompiles_before
        )

        snap = server.metrics.snapshot()["counters"]
        report.facts["lost"] = (
            snap.get("requests_accepted", 0)
            - snap.get("requests_served", 0)
            - server.queue_depth
        )
    return report


def fleet_rewire_case(new_graph: TaskGraph, requests: int = 8) -> CaseReport:
    """Zero-loss rewire through the router: reroute + affinity remap.

    Shards share a plan store (the production configuration), so the
    affinity move a rewire causes — the workload may hash onto a
    *different* shard under the new digest — still finds warm plans:
    compiled once anywhere, warm everywhere.
    """
    label = f"fleet cat->{new_graph.name} [reroute]"
    with run_case("rewire", label, rewire_verdict) as report, \
            tempfile.TemporaryDirectory(prefix="rewire-store-") as tmp:
        store = SharedPlanStore(tmp)
        workers = [
            FleetWorker(f"w{i}", part, store=store)
            for i, part in enumerate(PimConfig(num_pes=64).split(4))
        ]
        router = FleetRouter(workers)
        # Warm the old plan with served traffic before the swap.
        for _ in range(requests):
            router.submit("cat", iterations=1)
        router.drain()
        for _ in range(requests):
            router.submit("cat", iterations=1)
        swap = router.rewire("cat", new_graph, cut_point="reroute")
        report.facts["rerouted"] = swap.rerouted
        router.drain()
        repeat = router.rewire(
            "cat", router.graph_loader("cat"), cut_point="reroute"
        )
        report.facts["repeat_warm"] = (
            not repeat.recompiled
            and not router.rewire(
                "cat", new_graph, cut_point="reroute"
            ).recompiled
        )
        report.facts["lost"] = router.accounting()["lost"]
    return report


def randwired_property_battery(
    config: Optional[PimConfig] = None,
    specs: Optional[List[RandwiredSpec]] = None,
    seeds: int = 3,
    validator: Optional[ScheduleValidator] = None,
) -> List[CaseReport]:
    """Determinism + legality across a seeded ER/WS/BA sweep.

    Every spec is regenerated twice (fingerprints must match — the graph
    is a pure function of the spec) and compiled through the full
    pipeline; validator errors are failures by definition. One case per
    graph.
    """
    config = config or PimConfig(num_pes=16)
    validator = validator or ScheduleValidator()
    if specs is None:
        base = [
            RandwiredSpec(kind="er", num_vertices=16, p=0.3),
            RandwiredSpec(kind="ws", num_vertices=16, k=4, p=0.4),
            RandwiredSpec(kind="ba", num_vertices=16, m=2),
        ]
        specs = [
            reseeded(spec, seed) for spec in base for seed in range(seeds)
        ]
    reports: List[CaseReport] = []
    for spec in specs:
        label = f"randwired {spec.kind}/n{spec.num_vertices}/s{spec.seed}"
        with run_case("rewire", label) as report:
            graph = randwired_graph(spec)
            if graph.fingerprint() != randwired_graph(spec).fingerprint():
                report.failures.append("fingerprint not deterministic")
            else:
                plan = ParaConv(config).run(graph)
                report.failures.extend(
                    str(violation)
                    for violation in validator.validate(plan).errors()
                )
        reports.append(report)
    return reports


def rewire_differential(
    config: Optional[PimConfig] = None,
    iterations: int = 20,
    seeds: int = 3,
    validator: Optional[ScheduleValidator] = None,
) -> List[CaseReport]:
    """The full ``--rewire`` battery: cases + fleet + randwired sweep."""
    config = config or PimConfig(num_pes=16)
    reports = [
        rewire_case(
            load_workload(old_name),
            load_workload(new_name),
            config,
            cut_point=cut_point,
            iterations=iterations,
            validator=validator,
        )
        for old_name, new_name, cut_point in (
            ("cat", "randwired-er", "drain"),
            ("randwired-er", "randwired-ba", "reroute"),
            ("flower", "randwired-ws", "drain"),
        )
    ]
    reports.append(fleet_rewire_case(load_workload("randwired-er")))
    reports.extend(randwired_property_battery(
        config, seeds=seeds, validator=validator
    ))
    return reports


def run_rewire_battery(
    args: argparse.Namespace, validator: ScheduleValidator
) -> List[CaseReport]:
    """Three live-rewire cases, the fleet rewire, the randwired sweep."""
    return rewire_differential(
        config=machine(args), seeds=args.rewire_seeds, validator=validator
    )


REWIRE_BATTERY = Battery(
    name="rewire",
    help="differentially verify live rewiring: post-swap serving must "
         "match a cold compile of the new graph field by field, queued "
         "requests must cross the cut-point with zero loss (single server "
         "and fleet), repeat swaps must not recompile, and the seeded "
         "ER/WS/BA randwired battery must be deterministic and "
         "validator-clean",
    run=run_rewire_battery,
    options=(
        option("--rewire-seeds", type=positive_int, default=3,
               help="seeds per family for the --rewire randwired battery "
                    "(default 3)"),
    ),
)
