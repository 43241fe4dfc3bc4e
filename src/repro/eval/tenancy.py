"""Multi-tenancy bench: consolidation throughput and fused-dataflow profile.

``python -m repro.eval tenancy`` answers two questions the tenancy layer
raises and writes the answers as a ``BENCH_tenancy/v1`` trajectory file:

1. **What does consolidation buy?** For each co-residency scenario the
   verify battery proves isolated, serve a fixed request mix co-resident
   and measure the machine-wide makespan (the slowest tenant's virtual
   horizon — disjoint partitions run concurrently) against the serial
   baseline (the same work time-sliced on the whole machine one tenant
   at a time, i.e. the sum of horizons). The ratio is the consolidation
   speedup; per-tenant rows carry the served/queued/shed accounting.
2. **What does fusion change?** For each fused-capable model, lower it
   unfused and with ``fusion="auto"`` and compare the task graphs
   (ops, intermediate results, footprint) and their ΔR profiles
   (:func:`repro.core.retiming.delta_r_accounting`): fusion deletes
   in-run IRs from the allocation problem entirely, and the bench
   records how much candidate ΔR mass the boundary edges retain,
   plus compile wall time and steady-state plan latency for both.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Optional, Sequence

from repro.cnn.models import MODEL_BUILDERS
from repro.cnn.partition import partition_network
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges, delta_r_accounting
from repro.eval.bench_io import new_report
from repro.pim.config import PimConfig
from repro.pim.tenancy import TenantPlacement
from repro.fleet.tenancy import TenantScheduler

__all__ = [
    "DEFAULT_TENANCY_SCENARIOS",
    "render_tenancy",
    "run_tenancy_bench",
]

#: (label, tenant names, per-tenant workloads) benchmarked by default.
DEFAULT_TENANCY_SCENARIOS = (
    ("2-tenant", ("tenant-a", "tenant-b"), ("flower", "stock-predict")),
    (
        "3-tenant",
        ("tenant-a", "tenant-b", "tenant-c"),
        ("flower", "stock-predict", "string-matching"),
    ),
)

#: Models whose auto-fusion genuinely rewrites the graph.
DEFAULT_FUSED_MODELS = ("alexnet", "vgg16")


def _bench_scenario(
    label: str,
    tenants: Sequence[str],
    workloads: Sequence[str],
    machine: PimConfig,
    requests_per_tenant: int,
    iterations: int,
) -> Dict[str, Any]:
    placement = TenantPlacement.even(machine, list(tenants), split_vaults=True)
    scheduler = TenantScheduler(placement, batch_window=4)
    assignment = dict(zip(tenants, workloads))
    wall_start = time.perf_counter()
    for _ in range(requests_per_tenant):
        for tenant in tenants:
            scheduler.submit(tenant, assignment[tenant], iterations=iterations)
    scheduler.drain()
    wall_seconds = time.perf_counter() - wall_start

    accounting = scheduler.accounting()
    horizons = {t: scheduler.horizon(t) for t in tenants}
    # Disjoint partitions run concurrently: the machine is done when the
    # slowest tenant is. Serving the same work one tenant at a time on
    # the shared machine takes at least the sum.
    makespan = max(horizons.values(), default=0)
    serial = sum(horizons.values())
    fleet_counters = scheduler.fleet_view().snapshot()["counters"]
    return {
        "scenario": label,
        "tenants": {
            tenant: {
                "workload": assignment[tenant],
                "pes": len(placement.config_for(tenant).pe_mask),
                "horizon_units": horizons[tenant],
                **accounting["tenants"][tenant],
            }
            for tenant in tenants
        },
        "requests": requests_per_tenant * len(tenants),
        "makespan_units": makespan,
        "serial_units": serial,
        "consolidation_speedup": (serial / makespan) if makespan else 0.0,
        "plans_cached": len(scheduler.cache),
        "placement_fingerprint": placement.fingerprint(),
        "wall_seconds": wall_seconds,
        "fleet_counters": dict(sorted(fleet_counters.items())),
    }


def _bench_fused(model: str, config: PimConfig) -> Dict[str, Any]:
    network = MODEL_BUILDERS[model]()
    row: Dict[str, Any] = {"model": model}
    for mode, fusion in (("unfused", None), ("fused", "auto")):
        graph = partition_network(network, fusion=fusion)
        t0 = time.perf_counter()
        plan = ParaConv(config, validate=False).run(graph)
        compile_seconds = time.perf_counter() - t0
        timings = analyze_edges(graph, plan.schedule.kernel, config)
        row[mode] = {
            "ops": graph.num_vertices,
            "intermediate_results": len(list(graph.edges())),
            "intermediate_bytes": graph.total_intermediate_bytes(),
            "total_time_units": plan.total_time(),
            "compile_seconds": compile_seconds,
            "delta_r": delta_r_accounting(graph, timings).as_dict(),
        }
    unfused_time = row["unfused"]["total_time_units"]
    fused_time = row["fused"]["total_time_units"]
    row["latency_ratio"] = (
        fused_time / unfused_time if unfused_time else 0.0
    )
    return row


def run_tenancy_bench(
    config: Optional[PimConfig] = None,
    scenarios: Sequence = DEFAULT_TENANCY_SCENARIOS,
    fused_models: Sequence[str] = DEFAULT_FUSED_MODELS,
    num_pes: int = 64,
    requests_per_tenant: int = 12,
    iterations: int = 5,
) -> Dict[str, Any]:
    """Run the bench and return the ``BENCH_tenancy/v1`` report dict."""
    machine = (
        config.with_pes(num_pes) if config is not None
        else PimConfig(num_pes=num_pes)
    )
    fused_config = PimConfig(num_pes=16)
    return new_report("tenancy", {
        "machine": machine.describe(),
        "requests_per_tenant": requests_per_tenant,
        "iterations_per_request": iterations,
        "scenarios": [
            _bench_scenario(
                label, tenants, workloads, machine,
                requests_per_tenant, iterations,
            )
            for label, tenants, workloads in scenarios
        ],
        "fused": [_bench_fused(model, fused_config) for model in fused_models],
    })


def render_tenancy(report: Dict[str, Any]) -> str:
    """Human-readable view of a ``BENCH_tenancy`` report."""
    lines = [
        "Multi-tenancy: consolidation throughput "
        f"({report['machine']})",
        f"{'scenario':<12} {'requests':>8} {'makespan':>9} "
        f"{'serial':>7} {'speedup':>8} {'plans':>6}",
    ]
    for row in report["scenarios"]:
        lines.append(
            f"{row['scenario']:<12} {row['requests']:>8} "
            f"{row['makespan_units']:>9} {row['serial_units']:>7} "
            f"{row['consolidation_speedup']:>7.2f}x {row['plans_cached']:>6}"
        )
        for tenant, info in row["tenants"].items():
            lines.append(
                f"    {tenant:<12} {info['workload']:<16} "
                f"pes={info['pes']:<3} served={info['served']:<4} "
                f"horizon={info['horizon_units']}"
            )
    lines.append("")
    lines.append("Fused dataflow: lowering profile (16 PEs)")
    lines.append(
        f"{'model':<10} {'ops':>9} {'IRs':>9} {'dR cand.':>9} "
        f"{'boundary dR':>11} {'latency':>8}"
    )
    for row in report["fused"]:
        unfused, fused = row["unfused"], row["fused"]
        lines.append(
            f"{row['model']:<10} "
            f"{unfused['ops']:>4}->{fused['ops']:<4} "
            f"{unfused['intermediate_results']:>4}->{fused['intermediate_results']:<4} "
            f"{unfused['delta_r']['candidate_edges']:>4}->{fused['delta_r']['candidate_edges']:<4} "
            f"{fused['delta_r']['fused_boundary_delta_r']:>11} "
            f"{row['latency_ratio']:>7.3f}x"
        )
    return "\n".join(lines)
