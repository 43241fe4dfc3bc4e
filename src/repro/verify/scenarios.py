"""One scenario engine: every serving tier held to its references.

A :class:`Scenario` is data: a battery and case name, a builder for the
:class:`System` under test (a batching server, a fleet router or a tenant
scheduler) and a tuple of events ``(kind, *args)``: ``submit``, ``pump``,
``drain``, ``kill``, ``fault``, ``rewire``, ``shed``, or any other method
of the tier, each called with the tier's own arguments. After every step
:func:`run_scenario` checks that each tier's books close (``admitted ==
served + shed + failed + queued``); that every batch served in the step
equals its reference -- a replay on a standalone server over the machine
and graph it ran on (:func:`~repro.verify.harness.replay_batches`) or,
for the last batch of a session that failed over or swapped its graph,
a cold compile on the full unroll
(:func:`~repro.verify.harness.hold_to_cold_compile`); and that every
location (the server, a fleet shard, a tenant) has the conserved counters
of those references. ``fault`` arms a unit failure, and the
batch that reports the failover degrades the reference machine, which is
built apart from the session. The first failing step ends the run and is
named (``step k: <event>``): the events up to it are the minimal failing
prefix. A run that passes every step validates every plan it served and
holds its end-of-run facts to the scenario's expected values.

:func:`scenario_table` lists every case of ``--scenarios``: the fault,
fleet, tenancy and rewire cases, the composed cases, and two
:class:`Stage` cases that run whole rather than as events -- the
fused-lowering stage and the seeded randwired sweep.
"""

from __future__ import annotations

import argparse
import collections
import itertools
import tempfile
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cnn.models import MODEL_BUILDERS
from repro.cnn.partition import partition_network
from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges, delta_r_accounting
from repro.fleet.loadgen import FleetLoadGenerator
from repro.fleet.router import FleetRouter
from repro.fleet.slo import SloClass, SloPolicy
from repro.fleet.store import SharedPlanStore
from repro.fleet.tenancy import TenantScheduler
from repro.fleet.worker import FleetResult, FleetWorker
from repro.graph.randwired import RandwiredSpec, randwired_graph, reseeded
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig, assert_disjoint
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.pim.tenancy import TenantPlacement
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer
from repro.verify.differential_sim import sim_differential_battery
from repro.verify.harness import (
    Battery,
    CaseReport,
    Mismatch,
    benchmark_names,
    expectation_failures,
    hold_to_cold_compile,
    machine,
    option,
    positive_int,
    replay_batches,
    run_case,
)
from repro.verify.oracle import machine_variants, view_differentials
from repro.verify.validator import ScheduleValidator

Event = Tuple[Any, ...]

#: Counters a location's isolated replay must reproduce exactly.
CONSERVED_COUNTERS = ("requests_served", "inferences_served", "sim_units_busy",
                      "cache_spills", "batches_executed")

#: A fleet's end: every admitted fleet id came back exactly once.
IDS_CONSERVED = {"duplicate_fleet_ids": [], "missing_fleet_ids": []}

#: Converging paper models the fleet trace serves (the fleet bench's).
FLEET_WORKLOADS = ("flower", "lenet5", "stock-predict", "string-matching")

#: Co-residency scenario -> tenant -> workload.
TENANCY_SCENARIOS: Dict[str, Dict[str, str]] = {
    "two-tenant": {"tenant-a": "flower", "tenant-b": "flower"},
    "three-tenant": {"tenant-a": "flower", "tenant-b": "stock-predict",
                     "tenant-c": "string-matching"},
    "degraded-tenant": {"tenant-a": "flower", "tenant-b": "stock-predict"},
}


@dataclass
class System:
    """A tier under test and what the checks read from it."""

    #: a BatchingServer, FleetRouter or TenantScheduler: events call it.
    tier: Any
    #: every batching server serving for the tier, by location.
    servers: Dict[str, BatchingServer]
    #: the graph each workload name serves now: the references' map. The
    #: tiers load from a fixed copy, as they would from ``load_workload``,
    #: so a rewire reaches them only through the tier's own overrides.
    graphs: Dict[str, TaskGraph]
    #: distinct plans the tier holds.
    plans: Callable[[], int]
    facts: Callable[[], Dict[str, object]] = dict
    close: Callable[[], None] = lambda: None
    #: fleet ids the tier handed back: returned results and shed requests.
    fleet_ids: List[int] = field(default_factory=list)

    def books(self) -> Dict[str, Mapping[str, int]]:
        """Each tier's ``accounting()``: the router's for a fleet (its
        shards hand requests back to it), else every server's."""
        if isinstance(self.tier, FleetRouter):
            return {"fleet": self.tier.accounting()}
        return {name: server.accounting() for name, server in self.servers.items()}


def server_system(config: PimConfig, graphs: Dict[str, TaskGraph]) -> System:
    """One server; aliases of one graph get sessions of their own."""
    server = BatchingServer(config, cache=PlanCache(), batch_window=4,
                            max_queue=1024, graph_loader=dict(graphs).__getitem__)
    return System(server, {"server": server}, graphs, lambda: len(server.cache))


def fleet_system(
    graphs: Dict[str, TaskGraph], workers: int = 4, num_pes: int = 64,
    batch_window: int = 16, deadline: Optional[int] = None,
    replica: bool = False,
) -> System:
    """Equal shards sharing one plan store; ``deadline`` sheds interactive
    requests, ``replica`` adds the cold-replica facts."""
    if num_pes % workers:
        # Unequal shards have different logical shapes, so different plan
        # identities: warm-everywhere holds only between equal shards.
        raise ValueError(f"num_pes ({num_pes}) must divide evenly into {workers} workers")
    directory = tempfile.TemporaryDirectory(prefix="scenario-store-")
    store = SharedPlanStore(directory.name)
    shards = PimConfig(num_pes=num_pes).split(workers, split_vaults=True)
    loader = dict(graphs).__getitem__
    fleet = [FleetWorker(f"worker-{index}", shard, store=store,
                         batch_window=batch_window, graph_loader=loader)
             for index, shard in enumerate(shards)]
    router = FleetRouter(
        fleet, policies={SloClass.INTERACTIVE: SloPolicy(4096, deadline)},
        graph_loader=loader,
    )
    system = System(router, {w.worker_id: w.server for w in fleet}, graphs,
                    lambda: len(store), close=directory.cleanup)
    for worker in fleet:  # shed requests are counted, never returned
        def shed_expired(now, policies, shed=worker.shed_expired):
            out = shed(now, policies)
            system.fleet_ids.extend(meta.fleet_id for _, meta in out)
            return out
        worker.shed_expired = shed_expired

    def cold_replica() -> Dict[str, object]:
        # A cold shard on the same store serves every workload: each plan
        # must hydrate from disk, none compile.
        cold = FleetWorker("cold-replica", shards[0], store=store,
                           graph_loader=loader)
        for index, workload in enumerate(graphs):
            cold.submit(workload, 1, SloClass.STANDARD, 0, -(index + 1))
            cold.pump(0)
        compiles = sum(s.compilations for s in cold.server.sessions().values())
        return {"cold_replica_compiles": compiles,
                "cold_replica_disk_hits": cold.cache.stats.disk_hits}

    if replica:
        system.facts = cold_replica
    return system


def tenancy_system(scenario: str, num_pes: int) -> System:
    """Co-resident tenants on validated-disjoint slices of one machine."""
    tenants = TENANCY_SCENARIOS[scenario]
    placement = TenantPlacement.even(PimConfig(num_pes=num_pes), list(tenants),
                                     split_vaults=True)
    if scenario == "degraded-tenant":
        # Tenant B lost half its slice; it must still validate and isolate.
        half = len(placement.config_for("tenant-b").pe_mask) // 2
        placement = placement.with_degraded("tenant-b", range(half))
    assert_disjoint(view for _, view in placement.items())
    graphs = _graphs(**{name: name for name in tenants.values()})
    scheduler = TenantScheduler(
        placement, slos={placement.names[0]: "interactive"}, batch_window=4,
        graph_loader=dict(graphs).__getitem__,
    )
    return System(scheduler, {t: scheduler.server_for(t) for t in tenants},
                  graphs, lambda: len(scheduler.cache))


def degraded_reference(config: PimConfig, unit: str, unit_id: int) -> PimConfig:
    """``config`` without one unit, built apart from any session."""
    pes = list(range(config.num_pes))
    if unit == FAULT_UNIT_PE:
        return config.degraded([p for p in pes if p != unit_id])
    return config.degraded(pes, [v for v in range(config.num_vaults) if v != unit_id])


@dataclass
class _Run:
    """One scenario run: its system, its report and the references."""

    system: System
    report: CaseReport
    validator: ScheduleValidator
    #: workload -> (unit, unit id) of a fault armed but not yet struck.
    armed: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    #: (location, workload) -> the machine its session should serve.
    machines: Dict[Tuple[str, str], PimConfig] = field(default_factory=dict)
    #: (location, graph fingerprint, machine) -> isolated replay server;
    #: the replay servers share one plan cache, apart from the tier's.
    baselines: Dict[tuple, BatchingServer] = field(default_factory=dict)
    plans: PlanCache = field(default_factory=PlanCache)
    #: location -> conserved counters of its isolated run so far.
    isolated: Dict[str, collections.Counter] = field(
        default_factory=lambda: collections.defaultdict(collections.Counter))
    #: cold full-unroll references, shared by every hold of the run.
    cold: Dict[tuple, tuple] = field(default_factory=dict)
    seen: Dict[str, int] = field(default_factory=dict)

    def apply(self, event: Event) -> None:
        kind, *args = event
        tier, graphs = self.system.tier, self.system.graphs
        if kind == "fault":  # (workload, unit, unit id, iteration)
            self.armed[args[0]] = (args[1], args[2])
            session = next(server.sessions()[args[0]]
                           for server in self.system.servers.values()
                           if args[0] in server.sessions())
            return session.arm_fault(FaultModel.single(*args[1:]))
        if kind == "rewire":  # (workload, graph name, cut point)
            args[1] = load_workload(args[1])
        elif kind == "kill":  # a shard, or the shard owning a workload
            kind = "kill_worker"
            if args[0] not in tier.workers:
                args = [tier.worker_for(args[0]).worker_id]
        elif kind == "shed":  # age every queue: stale requests shed next
            kind, args = "advance_to", [tier.now_units + args[0]]
        elif kind == "pump" and not hasattr(tier, "pump"):
            kind = "step"
        out = getattr(tier, kind)(*args)
        if kind == "rewire":
            graphs[args[0]] = args[1]
        if isinstance(out, list) or hasattr(out, "drained"):
            self.system.fleet_ids.extend(r.fleet_id for r in getattr(out, "drained", out)
                                  if isinstance(r, FleetResult))

    def check(self, where: str, graphs: Mapping[str, TaskGraph]) -> None:
        for label, books in self.system.books().items():
            if books["lost"]:
                self.report.failures.append(
                    f"{where}: {label} books do not close: {dict(books)}")
        for location, server in self.system.servers.items():
            results = server.results
            fresh = results[self.seen.get(location, 0):]
            self.seen[location] = len(results)
            batches = [list(group) for _, group in
                       itertools.groupby(fresh, lambda r: r.batch_id)]
            last = {batch[0].request.workload: batch for batch in batches}
            for batch in batches:
                workload = batch[0].request.workload
                config = self.machines.get((location, workload), server.config)
                if batch[0].batch.failovers:
                    config = degraded_reference(config, *self.armed.pop(workload))
                    self.machines[location, workload] = config
                graph, session = graphs[workload], server.sessions()[workload]
                if batch is last[workload] and (session.graph_swaps or session.failovers):
                    # After a fault or a rewire the reference is a cold
                    # compile; the session's last trace is this batch's.
                    cold = self._hold(f"{where}: {location}/{workload}",
                                      session, graph, config)
                    isolated = (len(batch), cold["iterations"],
                                cold["realized_makespan"], cold["cache_spills"])
                else:
                    key = (location, graph.fingerprint(), config)
                    if key not in self.baselines:
                        self.baselines[key] = BatchingServer(
                            config, cache=self.plans, batch_window=1 << 16,
                            max_queue=1 << 16, graph_loader=lambda _name, g=graph: g,
                        )
                    replay = replay_batches(self.report, f"{where}: {location}",
                                            batch, self.baselines[key])
                    isolated = (len(replay), sum(r.request.iterations for r in replay),
                                replay[0].batch.realized_makespan,
                                replay[0].batch.cache_spills)
                self.isolated[location].update(
                    dict(zip(CONSERVED_COUNTERS, (*isolated, 1))))
            if fresh:
                own = server.metrics.snapshot()["counters"]
                self.report.mismatches.extend(
                    Mismatch(f"{where}: {location}", name,
                             self.isolated[location][name], own.get(name, 0))
                    for name in CONSERVED_COUNTERS
                    if own.get(name, 0) != self.isolated[location][name]
                )

    def _hold(self, where: str, session, graph: TaskGraph,
              config: PimConfig) -> Mapping[str, object]:
        """The last trace against a cold compile on the reference machine;
        returns the cold signature."""
        trace = session.last_trace
        if session.active_config != config:
            self.report.mismatches.append(Mismatch(
                where, "config_fingerprint", config.fingerprint(),
                session.active_config.fingerprint(),
            ))
        return hold_to_cold_compile(
            self.report, trace.aggregate_signature(), graph, config,
            trace.iterations, session.allocator, self.validator, where, self.cold,
        )

    def end(self) -> Dict[str, object]:
        """Validate every served plan; the run's end-of-run facts."""
        sessions, served = [], {}
        for location, server in self.system.servers.items():
            for workload, session in server.sessions().items():
                sessions.append(session)
                # Content-addressed: one plan per graph and machine.
                key = (session.graph.fingerprint(), session.active_config)
                served.setdefault(key, (f"{location}/{workload}", session.plan))
        held = {key[:2] for key in self.cold}  # validated as cold plans
        for where, plan in (v for k, v in served.items() if k not in held):
            self.report.failures.extend(
                f"{where} plan: {violation}"
                for violation in self.validator.validate(plan).errors()
            )
        books: collections.Counter = collections.Counter()
        for tier_books in self.system.books().values():
            books.update(tier_books)
        plans = self.system.plans()
        facts: Dict[str, object] = {
            "served": books["served"],
            "shed": books["shed"],
            "faults_observed": sum(s.faults_observed for s in sessions),
            "failovers": sum(s.failovers for s in sessions),
            "graph_swaps": sum(s.graph_swaps for s in sessions),
            "batches_reused": sum(s.batches_reused for s in sessions),
            "plans": plans,
            # Compiles beyond one per distinct plan: a warm plan recompiled.
            "warm_recompiles": sum(s.compilations for s in sessions) - plans,
        }
        if isinstance(self.system.tier, FleetRouter):
            # The router numbers admissions 1, 2, ...: each id comes back
            # exactly once, served to a caller or shed.
            counts = collections.Counter(self.system.fleet_ids)
            facts["workers_lost"] = books["workers_lost"]
            facts["duplicate_fleet_ids"] = sorted(i for i, n in counts.items() if n > 1)
            facts["missing_fleet_ids"] = [i for i in range(1, books["admitted"] + 1)
                                          if i not in counts]
        return {**facts, **self.system.facts()}


@dataclass(frozen=True)
class Scenario:
    """One event scenario: who runs it, what it does, what it ends at."""

    battery: str
    name: str
    build: Callable[[], System]
    events: Tuple[Event, ...]
    expect: Mapping[str, object]

    def run(self, validator: Optional[ScheduleValidator] = None) -> CaseReport:
        return run_scenario(self, validator)


def run_scenario(
    scenario: Scenario, validator: Optional[ScheduleValidator] = None
) -> CaseReport:
    """Apply the events in order, checking after every step."""
    report = CaseReport(battery=scenario.battery, case=scenario.name)
    where, system = "build", None
    try:
        system = scenario.build()
        run = _Run(system, report, validator or ScheduleValidator())
        for step, event in enumerate(scenario.events, 1):
            where = f"step {step}: {event[0]}({', '.join(map(repr, event[1:]))})"
            before = dict(system.graphs)
            run.apply(event)
            # Batches served during a draining rewire ran before the swap.
            drained = event[0] == "rewire" and event[3] == "drain"
            run.check(where, before if drained else system.graphs)
            if not report.ok:
                return report
        where = "end"
        report.facts.update(run.end())
        report.failures.extend(expectation_failures(scenario.expect, report.facts))
    except Exception as exc:  # noqa: BLE001 - a battery must report, not crash
        report.error = f"{where}: {type(exc).__name__}: {exc}"
    finally:
        if system is not None:
            system.close()
    return report


# ----------------------------------------------------------------------
# the two stages that are not event scenarios
# ----------------------------------------------------------------------
#: Models the fused stage lowers: both have adjacent conv runs, so
#: auto-fusion genuinely rewrites the graph.
FUSED_MODELS = ("alexnet", "vgg16")

#: The randwired families the sweep reseeds.
RANDWIRED_SPECS = (
    RandwiredSpec(kind="er", num_vertices=16, p=0.3),
    RandwiredSpec(kind="ws", num_vertices=16, k=4, p=0.4),
    RandwiredSpec(kind="ba", num_vertices=16, m=2),
)


@dataclass(frozen=True)
class Stage:
    """A case that runs whole, not as events: the fused-lowering stage
    and the seeded randwired sweep."""

    battery: str
    name: str
    run: Callable[[ScheduleValidator], CaseReport]


def verify_fused_model(
    model: str, num_pes: int = 16, validator: Optional[ScheduleValidator] = None
) -> CaseReport:
    """Lower one paper model fused and hold it to the sim differential,
    the validator and the oracle.

    The fused DP plan on every machine view of
    :func:`~repro.verify.oracle.machine_variants` must pass the full
    validator and match the oracle on the instance it solved. The sim
    mismatches and every failure become this case's own, located by the
    inner case or the view that found them.
    """
    validator = validator or ScheduleValidator()
    expect = {"work_conserved": True, "singletons_untouched": True}
    with run_case("tenancy", f"fused-{model}", expect) as report:
        network = MODEL_BUILDERS[model]()
        info = network.infer_shapes()
        unfused = partition_network(network)
        fused = partition_network(network, fusion="auto")
        report.facts["unfused_ops"] = unfused.num_vertices
        report.facts["fused_ops"] = fused.num_vertices
        report.facts["fused_stages"] = sum(
            1 for op in fused.operations() if op.fused_count > 1
        )
        report.facts["ops_absorbed"] = sum(
            op.fused_count - 1 for op in fused.operations()
        )

        # Work conservation: each fused run's tasks (named "a+b#k") must
        # sum to its member layers' MACs to the unit — fusion sums
        # compute, it never invents or drops any.
        run_work: Dict[str, int] = {}
        for op in fused.operations():
            if op.fused_count > 1:
                run_work.setdefault(op.name.split("#")[0], 0)
                run_work[op.name.split("#")[0]] += op.work
        report.facts["work_conserved"] = bool(run_work) and all(
            total == sum(info[member].macs for member in label.split("+"))
            for label, total in run_work.items()
        )

        # Ops outside every fused run must lower exactly as before.
        unfused_by_name = {op.name: op for op in unfused.operations()}
        report.facts["singletons_untouched"] = all(
            (ref := unfused_by_name.get(op.name)) is not None
            and ref.work == op.work
            and ref.execution_time == op.execution_time
            and ref.kind == op.kind
            for op in fused.operations()
            if op.fused_count == 1
        )

        config = PimConfig(num_pes=num_pes)
        plan = ParaConv(config, validate=False).run(fused)
        # The fused ΔR profile, for the record (and the eval bench).
        timings = analyze_edges(fused, plan.schedule.kernel, config)
        report.facts["delta_r"] = delta_r_accounting(fused, timings).as_dict()

        for case in sim_differential_battery(
            plan, config=config, iteration_counts=[1, 20]
        ):
            report.mismatches.extend(case.mismatches)
            report.failures.extend(
                f"{case.battery}[{case.case}]: {text}"
                for text in case.failures
                + ([case.error] if case.error is not None else [])
            )

        plans = {
            label: plan if label == "healthy"
            else ParaConv(view, validate=False).run(fused)
            for label, view in machine_variants(config)
        }
        for label, view_plan in plans.items():
            report.failures.extend(
                f"{label} plan: {violation}"
                for violation in validator.validate(view_plan).errors()
            )
        for label, differential in view_differentials(
            fused, config, plans=plans
        ).items():
            report.failures.extend(
                f"{label} oracle: {text}" for text in differential.failures
            )
    return report


def randwired_case(
    spec: RandwiredSpec, config: PimConfig, validator: Optional[ScheduleValidator] = None
) -> CaseReport:
    """Determinism and legality of one seeded randwired graph."""
    label = f"randwired {spec.kind}/n{spec.num_vertices}/s{spec.seed}"
    with run_case("rewire", label) as report:
        graph = randwired_graph(spec)
        if graph.fingerprint() != randwired_graph(spec).fingerprint():
            report.failures.append("fingerprint not deterministic")
        else:
            plan = ParaConv(config).run(graph)
            report.failures.extend(
                str(violation)
                for violation in (validator or ScheduleValidator())
                .validate(plan).errors()
            )
    return report


def fused_stages() -> List[Stage]:
    return [Stage("tenancy", f"fused-{model}",
                  lambda validator, m=model: verify_fused_model(m, validator=validator))
            for model in FUSED_MODELS]


def randwired_stages(config: PimConfig, seeds: int = 3) -> List[Stage]:
    specs = [reseeded(s, seed) for s in RANDWIRED_SPECS for seed in range(seeds)]
    return [Stage("rewire", f"randwired {s.kind}/n{s.num_vertices}/s{s.seed}",
                  lambda validator, s=s: randwired_case(s, config, validator))
            for s in specs]


# ----------------------------------------------------------------------
# the table
# ----------------------------------------------------------------------
def _graphs(**aliases: str) -> Dict[str, TaskGraph]:
    """Workload name -> graph, loading each registry name once."""
    loaded = {name: load_workload(name) for name in set(aliases.values())}
    return {alias: loaded[name] for alias, name in aliases.items()}


def reversed_copy(graph: TaskGraph, name: str) -> TaskGraph:
    """``graph`` with its ops and edges added in reverse order."""
    clone = TaskGraph(name=name, period_hint=graph.period_hint)
    for op in reversed(graph.operations()):
        clone.add_operation(op)
    for edge in reversed(graph.edges()):
        clone.add_edge(edge)
    return clone


def fault_case(workload: str, config: PimConfig, unit: str = FAULT_UNIT_PE,
               unit_id: int = 0, iteration: int = 3, iterations: int = 20) -> Scenario:
    """A failed-over batch equals a cold compile on the degraded machine,
    and a second session meeting the same fault finds the plan warm."""
    if unit not in (FAULT_UNIT_PE, FAULT_UNIT_VAULT):
        raise ValueError(f"unit must be 'pe' or 'vault', got {unit!r}")
    warm = f"{workload}~warm"
    return Scenario(
        "faults", f"{workload} {unit}{unit_id}@{iteration} N={iterations}",
        lambda: server_system(config, _graphs(**{workload: workload, warm: workload})),
        tuple(event for name in (workload, warm) for event in (
            ("submit", name, iterations), ("fault", name, unit, unit_id, iteration),
            ("pump",))),
        {"faults_observed": 2, "failovers": 2, "warm_recompiles": 0},
    )


def fleet_trace_case(requests: int = 400, workloads: Sequence[str] = FLEET_WORKLOADS,
                     workers: int = 4, num_pes: int = 64, batch_window: int = 16,
                     seed: int = 0) -> Scenario:
    """A seeded trace across a kill of the last shard at half time; a cold
    replica then serves every workload from the store."""
    events: List[Event] = []
    trace = FleetLoadGenerator(list(workloads), seed=seed).requests(requests)
    for index, arrival in enumerate(trace):
        if index == requests // 2 and workers > 1:
            events.append(("kill", f"worker-{workers - 1}"))
        events += [("advance_to", arrival.arrival_units),
                   ("submit", arrival.workload, 1, arrival.slo.value)]
        if (index + 1) % batch_window == 0:
            events.append(("pump",))
    return Scenario(
        "fleet", f"{workers}w x {len(workloads)}wl N={requests}",
        lambda: fleet_system(_graphs(**{w: w for w in workloads}), workers,
                             num_pes, batch_window, replica=True),
        (*events, ("drain",)),
        {"served": requests, "plans": len(workloads), "warm_recompiles": 0,
         "workers_lost": int(workers > 1), **IDS_CONSERVED,
         "cold_replica_compiles": 0, "cold_replica_disk_hits": len(workloads)},
    )


def tenancy_case(scenario: str, num_pes: int = 64, requests: int = 12,
                 iterations: int = 5) -> Scenario:
    """Round-robin arrivals on co-resident tenants; each tenant gets its
    own plan, even for a workload another tenant serves."""
    if scenario not in TENANCY_SCENARIOS:
        raise ValueError(f"unknown tenancy scenario {scenario!r}")
    tenants = TENANCY_SCENARIOS[scenario]
    submits = tuple(("submit", tenant, workload, iterations)
                    for tenant, workload in tenants.items())
    return Scenario(
        "tenancy", scenario, lambda: tenancy_system(scenario, num_pes),
        (*submits * requests, ("drain",)),
        {"served": requests * len(tenants), "plans": len(tenants),
         "warm_recompiles": 0},
    )


def rewire_case(old: str, new: str, config: PimConfig, cut_point: str = "drain",
                iterations: int = 20, queued: int = 5) -> Scenario:
    """Swap a served workload with requests queued: post-swap batches equal
    a cold compile of the new graph, repeat swaps find both plans warm,
    and a bystander alias of the old graph is untouched."""
    by = f"{old}~bystander"
    return Scenario(
        "rewire", f"{old}->{new} [{cut_point}] N={iterations}",
        lambda: server_system(config, _graphs(**{old: old, by: old})),
        (("submit", old), ("pump",), *(("submit", old),) * queued, ("submit", by),
         ("rewire", old, new, cut_point), ("drain",), ("submit", old, iterations),
         ("drain",), ("rewire", old, old, cut_point), ("drain",),
         ("rewire", old, new, cut_point), ("drain",)),
        {"graph_swaps": 3, "warm_recompiles": 0},
    )


def fleet_rewire_case(new: str, requests: int = 8) -> Scenario:
    """Queued requests follow a rewire to the new digest's shard, and
    repeat swaps find every plan in the store."""
    submits = (("submit", "cat"),) * requests
    return Scenario(
        "rewire", f"fleet cat->{new} [reroute]",
        lambda: fleet_system(_graphs(cat="cat"), batch_window=8),
        (*submits, ("drain",), *submits, ("rewire", "cat", new, "reroute"),
         ("drain",), ("rewire", "cat", "cat", "reroute"),
         ("rewire", "cat", new, "reroute")),
        {"served": 2 * requests, "plans": 2, "warm_recompiles": 0, **IDS_CONSERVED},
    )


def composed_cases(config: PimConfig) -> List[Scenario]:
    """Events no single battery combined."""
    cat, flower = ("submit", "cat"), ("submit", "flower")
    both = (cat, ("submit", "cat-reversed"))
    er = "randwired-er"

    def reversed_store() -> System:
        graphs = _graphs(cat="cat")
        graphs["cat-reversed"] = reversed_copy(graphs["cat"], "cat-reversed")
        return fleet_system(graphs, workers=2, num_pes=32)

    return [
        Scenario(
            "composed", f"pe0@3 during cat->{er} [drain]",
            lambda: server_system(config, _graphs(cat="cat", **{"cat~by": "cat"})),
            (("submit", "cat", 5), ("pump",), *(("submit", "cat", 5),) * 3,
             ("submit", "cat~by", 5), ("fault", "cat", "pe", 0, 3),
             ("rewire", "cat", er, "drain"), ("drain",), ("submit", "cat", 20),
             ("drain",)),
            {"faults_observed": 1, "failovers": 1, "graph_swaps": 1,
             "warm_recompiles": 0},
        ),
        Scenario(
            "composed", "shed during fleet drain",
            lambda: fleet_system(_graphs(cat="cat", flower="flower"), workers=2,
                                 num_pes=32, deadline=50),
            (*(("submit", "cat", 1, "interactive"),) * 3,
             ("submit", "flower", 1, "interactive"), flower, cat, ("shed", 51),
             ("drain",), ("submit", "cat", 1, "interactive"), ("drain",)),
            {"served": 3, "shed": 4, "warm_recompiles": 0, **IDS_CONSERVED},
        ),
        Scenario(
            "composed", f"kill during cat->{er} [reroute]",
            lambda: fleet_system(_graphs(cat="cat", flower="flower"), batch_window=8),
            (*(cat,) * 4, *(flower,) * 4, ("drain",), *(cat,) * 6, *(flower,) * 3,
             ("rewire", "cat", er, "reroute"), ("kill", "cat"), ("drain",), cat,
             ("drain",)),
            {"served": 18, "plans": 3, "warm_recompiles": 0, "workers_lost": 1,
             **IDS_CONSERVED},
        ),
        Scenario(
            "composed", "trace reuse across pe0@3 failover racing swap_graph",
            lambda: server_system(config, _graphs(cat="cat", **{"cat~twin": "cat"})),
            (("submit", "cat", 20), ("pump",), ("submit", "cat", 20),
             ("fault", "cat", "pe", 0, 3), ("rewire", "cat", er, "reroute"),
             ("pump",), ("rewire", "cat", "cat", "drain"), ("submit", "cat", 20),
             ("pump",), ("submit", "cat~twin", 20), ("pump",)),
            {"faults_observed": 1, "failovers": 1, "graph_swaps": 2,
             "batches_reused": 1, "warm_recompiles": 0},
        ),
        Scenario(
            "composed", "reversed-edge cat copies share one store", reversed_store,
            (*both * 3, ("drain",), ("kill", "cat"), *both * 2, ("drain",)),
            {"served": 10, "plans": 1, "warm_recompiles": 0, "batches_reused": 2,
             "workers_lost": 1, **IDS_CONSERVED},
        ),
    ]


def scenario_table(benchmarks: Sequence[str], config: PimConfig,
                   fleet_requests: int = 400, seed: int = 0) -> List[Any]:
    """Every :class:`Scenario` and :class:`Stage` of ``--scenarios`` in run
    order; building the table loads and runs nothing."""
    return [
        *(fault_case(name, config) for name in benchmarks),
        fault_case(benchmarks[0], config, FAULT_UNIT_VAULT, 2, 1, 10),
        fleet_trace_case(fleet_requests, seed=seed),
        *(tenancy_case(name) for name in TENANCY_SCENARIOS),
        *fused_stages(),
        rewire_case("cat", "randwired-er", config),
        rewire_case("randwired-er", "randwired-ba", config, "reroute"),
        rewire_case("flower", "randwired-ws", config),
        fleet_rewire_case("randwired-er"),
        *randwired_stages(config),
        *composed_cases(config),
    ]


def run_scenarios_battery(args: argparse.Namespace,
                          validator: ScheduleValidator) -> List[CaseReport]:
    table = scenario_table(benchmark_names(args), machine(args),
                           args.fleet_requests, args.seed)
    return [case.run(validator) for case in table]


SCENARIOS_BATTERY = Battery(
    name="scenarios",
    help="drive every serving tier through seeded event scenarios (faults, "
         "a fleet trace across a worker kill, co-resident tenants, live "
         "rewires and their compositions), checking after every step that "
         "the books close, every served batch equals its isolated replay "
         "or cold compile and every location's counters equal its isolated "
         "run; plus the fused-lowering stage and the randwired sweep",
    run=run_scenarios_battery,
    options=(option("--fleet-requests", type=positive_int, default=400,
                    help="trace length of the fleet scenario (default 400)"),),
)
