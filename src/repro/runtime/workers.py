"""Cold-start compilation: warm the plan cache for a fleet.

A fresh server has an empty plan cache; the first request for every
workload pays the full planning pipeline. ``warm_cache`` compiles the
workloads one after another and inserts each plan into the shared cache
under its content-addressed key. Compiles run serially because the
planner is pure Python and holds the GIL: threads cannot overlap them.

The report records per-workload wall time and whether the plan came from
cache (a warm disk tier makes warmup nearly free).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConvResult
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import PlanCache, plan_key_for


@dataclass(frozen=True)
class WorkloadWarmup:
    """One workload's warmup outcome."""

    workload: str
    digest: str
    seconds: float
    cached: bool
    #: compile-time plan facts an operator wants at a glance.
    period: int
    max_retiming: int
    num_groups: int
    group_width: int


@dataclass
class WarmupReport:
    """Aggregate outcome of one warmup run."""

    entries: List[WorkloadWarmup] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def compiled(self) -> int:
        return sum(1 for e in self.entries if not e.cached)

    @property
    def from_cache(self) -> int:
        return sum(1 for e in self.entries if e.cached)

    def render(self) -> str:
        lines = [
            f"{'workload':<20} {'ms':>9} {'source':>8} {'period':>7} "
            f"{'R_max':>6} {'groups':>12}"
        ]
        for e in sorted(self.entries, key=lambda e: e.workload):
            lines.append(
                f"{e.workload:<20} {e.seconds * 1e3:>9.2f} "
                f"{'cache' if e.cached else 'compile':>8} {e.period:>7} "
                f"{e.max_retiming:>6} {e.num_groups:>4} x {e.group_width:<5}"
            )
        lines.append(
            f"warmed {len(self.entries)} workloads in {self.wall_seconds:.2f}s "
            f"wall ({self.compiled} compiled, {self.from_cache} from cache)"
        )
        return "\n".join(lines)


def warm_cache(
    workloads: Sequence[str],
    config: PimConfig,
    cache: PlanCache,
    allocator: str = "dp",
    kernel_order: str = "topological",
    liveness_aware: bool = False,
    graph_loader: Optional[Callable[[str], TaskGraph]] = None,
) -> WarmupReport:
    """Compile every named workload into ``cache``, in order.

    Args:
        workloads: workload registry names (e.g. the 12 paper benchmarks).
        config: the machine the fleet serves on.
        cache: destination plan cache.
        graph_loader: workload resolver override for tests.

    Returns a :class:`WarmupReport`; raises the first compilation error
    (a bad workload name should fail warmup loudly, not silently skip).
    """
    loader = graph_loader if graph_loader is not None else load_workload

    def warm_one(name: str) -> WorkloadWarmup:
        started = time.perf_counter()
        graph = loader(name)
        key = plan_key_for(
            graph,
            config,
            allocator=allocator,
            kernel_order=kernel_order,
            liveness_aware=liveness_aware,
        )
        freshly_compiled: Dict[str, bool] = {"value": False}

        def _compile() -> ParaConvResult:
            from repro.core.paraconv import ParaConv

            freshly_compiled["value"] = True
            return ParaConv(
                config,
                allocator_name=allocator,
                kernel_order=kernel_order,
                liveness_aware=liveness_aware,
            ).run(graph)

        plan = cache.get_or_compile(key, graph, _compile)
        return WorkloadWarmup(
            workload=name,
            digest=key.digest,
            seconds=time.perf_counter() - started,
            cached=not freshly_compiled["value"],
            period=plan.period,
            max_retiming=plan.max_retiming,
            num_groups=plan.num_groups,
            group_width=plan.group_width,
        )

    report = WarmupReport()
    started = time.perf_counter()
    for name in workloads:
        report.entries.append(warm_one(name))
    report.wall_seconds = time.perf_counter() - started
    return report
