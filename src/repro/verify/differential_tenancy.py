"""Tenancy differential: co-resident serving must equal isolated serving.

Multi-tenant spatial partitioning claims *perfect isolation*: tenants on
validated-disjoint slices of one machine share nothing but the chassis,
so running them together changes no result and no aggregate. This module
machine-checks that claim end to end on ≥3 co-residency scenarios
(2-tenant, 3-tenant, and a tenant whose slice lost PEs):

1. **Per-request replay equivalence** — every batch a tenant's server
   executed co-residently is replayed, with identical composition, on a
   fresh standalone :class:`~repro.runtime.server.BatchingServer` over
   the *same partition view* with a private cache; each request's
   ``sim_latency`` and batch size must match exactly.
2. **Aggregate additivity** — for every conserved counter
   (requests/inferences served, busy units, spills, batches), the
   co-resident scheduler's machine-wide total equals the sum of the
   isolated runs. Disjoint partitions ⇒ aggregates add.
3. **Per-tenant validator battery** — every plan a tenant compiled
   passes the full :class:`~repro.verify.validator.ScheduleValidator`
   on its partition config.
4. **Distinct plan identity** — tenants serving the *same workload* on
   shape-identical slices still compile separate plans into the shared
   cache (partition fingerprints embed physical placement), so the
   cache ends the run holding exactly one plan per (tenant, workload).

A fifth, fused-dataflow stage lowers paper models with ``fusion="auto"``
and holds the fused plans to the existing sim and search differentials
unchanged — the new ΔR profile flows through the stock pipeline.

A mismatch is a tenancy bug (a leaked unit, a cross-tenant cache hit, a
scheduler that serialized what the hardware runs in parallel), which is
why this check rides in ``python -m repro.verify --tenancy``.
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.cnn.models import MODEL_BUILDERS
from repro.cnn.partition import partition_network
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges, delta_r_accounting
from repro.pim.config import PimConfig, assert_disjoint
from repro.pim.tenancy import TenantPlacement
from repro.fleet.tenancy import TenantScheduler
from repro.verify.differential_sim import sim_differential_battery
from repro.verify.differential_search import search_differential
from repro.verify.harness import (
    Battery,
    CaseReport,
    Mismatch,
    option,
    positive_int,
    replay_batches,
    run_case,
)
from repro.verify.validator import ScheduleValidator

__all__ = [
    "TENANCY_BATTERY",
    "TENANCY_SCENARIOS",
    "fused_verdict",
    "run_scenario",
    "scenario_verdict",
    "tenancy_differential",
    "verify_fused_model",
]

#: Workloads tenants serve: paper models whose steady-state sim converges
#: quickly (mirrors the fleet differential's defaults).
DEFAULT_TENANT_WORKLOADS = ("flower", "stock-predict", "string-matching")

#: Conserved counters that must add across disjoint tenants.
ADDITIVE_COUNTERS = (
    "requests_served",
    "inferences_served",
    "sim_units_busy",
    "cache_spills",
    "batches_executed",
)

#: The three co-residency scenarios the acceptance criteria name.
TENANCY_SCENARIOS = ("two-tenant", "three-tenant", "degraded-tenant")

#: Models the fused-dataflow stage lowers with ``fusion="auto"``: both
#: have adjacent conv runs, so auto-fusion genuinely rewrites the graph.
DEFAULT_FUSED_MODELS = ("alexnet", "vgg16")


def scenario_verdict(facts: Mapping[str, object]) -> List[str]:
    """Distinct plan identity: the shared cache ends the run holding
    exactly one plan per (tenant, workload) pair."""
    if facts.get("cached_plans") != facts.get("expected_plans"):
        return [
            f"cached_plans={facts.get('cached_plans')} (want "
            f"{facts.get('expected_plans')}, one per tenant)"
        ]
    return []


def fused_verdict(facts: Mapping[str, object]) -> List[str]:
    """Fusion sums compute without inventing or dropping any, and leaves
    every op it did not absorb exactly as the unfused lowering had it."""
    return [
        f"{name} is false"
        for name in ("work_conserved", "singletons_untouched")
        if facts.get(name) is not True
    ]


def _build_placement(
    scenario: str, machine: PimConfig, num_vaults: int
) -> Tuple[TenantPlacement, Dict[str, str]]:
    """The placement and per-tenant workload map for one scenario."""
    if scenario == "two-tenant":
        placement = TenantPlacement.even(
            machine, ["tenant-a", "tenant-b"], num_vaults=num_vaults
        )
        # Both tenants serve the SAME workload on shape-identical slices:
        # the sharpest possible test of per-tenant plan identity.
        workloads = {
            "tenant-a": DEFAULT_TENANT_WORKLOADS[0],
            "tenant-b": DEFAULT_TENANT_WORKLOADS[0],
        }
    elif scenario == "three-tenant":
        placement = TenantPlacement.even(
            machine,
            ["tenant-a", "tenant-b", "tenant-c"],
            num_vaults=num_vaults,
        )
        workloads = {
            "tenant-a": DEFAULT_TENANT_WORKLOADS[0],
            "tenant-b": DEFAULT_TENANT_WORKLOADS[1],
            "tenant-c": DEFAULT_TENANT_WORKLOADS[2],
        }
    elif scenario == "degraded-tenant":
        placement = TenantPlacement.even(
            machine, ["tenant-a", "tenant-b"], num_vaults=num_vaults
        )
        # Tenant B lost half its slice (fault inside its partition); the
        # degraded tenant must still validate and still isolate.
        half = len(placement.config_for("tenant-b").pe_mask) // 2
        placement = placement.with_degraded("tenant-b", range(half))
        workloads = {
            "tenant-a": DEFAULT_TENANT_WORKLOADS[0],
            "tenant-b": DEFAULT_TENANT_WORKLOADS[1],
        }
    else:
        raise ValueError(f"unknown tenancy scenario {scenario!r}")
    return placement, workloads


def run_scenario(
    scenario: str,
    num_pes: int = 64,
    num_vaults: int = 32,
    requests_per_tenant: int = 12,
    iterations: int = 5,
    batch_window: int = 4,
    allocator: str = "dp",
    validator: Optional[ScheduleValidator] = None,
) -> CaseReport:
    """Run one co-residency scenario end to end."""
    machine = PimConfig(num_pes=num_pes)
    placement, workloads = _build_placement(scenario, machine, num_vaults)
    validator = validator or ScheduleValidator()
    with run_case("tenancy", scenario, scenario_verdict) as report:
        report.facts["tenants"] = len(placement.names)
        report.facts["requests"] = requests_per_tenant * len(placement.names)
        report.facts["workloads"] = workloads
        # Disjointness is the scenario's premise; prove it, don't assume.
        assert_disjoint(view for _, view in placement.items())

        scheduler = TenantScheduler(
            placement,
            slos={placement.names[0]: "interactive"},
            batch_window=batch_window,
            allocator=allocator,
        )
        # Deterministic interleaved arrivals: round-robin across tenants
        # so co-resident scheduling genuinely interleaves service.
        for _ in range(requests_per_tenant):
            for tenant in placement.names:
                scheduler.submit(
                    tenant, workloads[tenant], iterations=iterations
                )
        scheduler.drain()

        # 1. per-request replay equivalence + 2. aggregate additivity.
        isolated_totals: Dict[str, int] = {c: 0 for c in ADDITIVE_COUNTERS}
        co_totals: Dict[str, int] = {c: 0 for c in ADDITIVE_COUNTERS}
        for tenant in placement.names:
            server = scheduler.server_for(tenant)
            baseline = replay_batches(
                report,
                tenant,
                server.results,
                placement.config_for(tenant),
                batch_window,
                allocator,
            )
            co_counters = server.metrics.snapshot()["counters"]
            base_counters = (
                baseline.metrics.snapshot()["counters"]
                if baseline is not None
                else {}
            )
            for counter in ADDITIVE_COUNTERS:
                co_totals[counter] += co_counters.get(counter, 0)
                isolated_totals[counter] += base_counters.get(counter, 0)
        report.mismatches.extend(
            Mismatch("<aggregate>", counter, isolated_totals[counter],
                     co_totals[counter])
            for counter in ADDITIVE_COUNTERS
            if co_totals[counter] != isolated_totals[counter]
        )

        # 3. per-tenant validator battery on every compiled plan.
        for tenant in placement.names:
            for workload, session in (
                scheduler.server_for(tenant).sessions().items()
            ):
                report.failures.extend(
                    f"{tenant}/{workload}: {violation}"
                    for violation in validator.validate(session.plan).errors()
                )

        # 4. distinct plan identity in the shared cache.
        report.facts["cached_plans"] = len(scheduler.cache)
        report.facts["expected_plans"] = len(placement.names)
    return report


def verify_fused_model(
    model: str,
    num_pes: int = 16,
    validator: Optional[ScheduleValidator] = None,
) -> CaseReport:
    """Lower one paper model fused and hold it to sim+search differentials.

    The fused plan's sim mismatches and search failures become this
    case's own, located by the inner case that found them.
    """
    validator = validator or ScheduleValidator()
    with run_case("tenancy", f"fused-{model}", fused_verdict) as report:
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

        inner = sim_differential_battery(
            plan, config=config, iteration_counts=[1, 20]
        ) + search_differential(
            fused, config, budgets=[64, 256], validator=validator
        )
        for case in inner:
            report.mismatches.extend(case.mismatches)
            report.failures.extend(
                f"{case.battery}[{case.case}]: {text}"
                for text in case.failures
                + ([case.error] if case.error is not None else [])
            )
    return report


def tenancy_differential(
    scenarios: Sequence[str] = TENANCY_SCENARIOS,
    fused_models: Sequence[str] = DEFAULT_FUSED_MODELS,
    num_pes: int = 64,
    num_vaults: int = 32,
    requests_per_tenant: int = 12,
    iterations: int = 5,
    batch_window: int = 4,
    allocator: str = "dp",
    validator: Optional[ScheduleValidator] = None,
) -> List[CaseReport]:
    """Run every co-residency scenario plus the fused-dataflow stage."""
    reports = [
        run_scenario(
            scenario,
            num_pes=num_pes,
            num_vaults=num_vaults,
            requests_per_tenant=requests_per_tenant,
            iterations=iterations,
            batch_window=batch_window,
            allocator=allocator,
            validator=validator,
        )
        for scenario in scenarios
    ]
    reports.extend(
        verify_fused_model(model, validator=validator) for model in fused_models
    )
    return reports


def run_tenancy_battery(
    args: argparse.Namespace, validator: ScheduleValidator
) -> List[CaseReport]:
    """Every co-residency scenario plus the fused-dataflow models."""
    return tenancy_differential(
        requests_per_tenant=args.tenancy_requests, validator=validator
    )


TENANCY_BATTERY = Battery(
    name="tenancy",
    help="differentially verify multi-tenant isolation: on 2-tenant, "
         "3-tenant and degraded-partition co-residency scenarios, every "
         "batch a tenant's server executed must replay identically on an "
         "isolated server over the same partition, aggregate counters must "
         "equal the sum of isolated runs, every tenant plan must pass the "
         "full validator, and fused-dataflow lowerings must conserve work "
         "and pass the sim and search differentials unchanged",
    run=run_tenancy_battery,
    options=(
        option("--tenancy-requests", type=positive_int, default=12,
               help="requests per tenant for the --tenancy stage "
                    "(default 12)"),
    ),
)
