"""Search-allocator differential verification.

The anytime search allocators (:mod:`repro.core.search`) come with three
machine-checkable promises, and this module is the instrument that holds
them to all three on real compiled instances:

1. **Oracle equality** — on instances small enough to enumerate
   (``num_items <= oracle_limit``), the DP-seeded annealer and the
   portfolio must return *exactly* the brute-force optimum of
   :func:`repro.verify.oracle.exhaustive_allocate`. The DP is optimal on
   the clean knapsack and the walk never returns worse than its seed, so
   any deviation is a real bug, not noise.
2. **DP lower bound (anytime/monotone)** — at *every* budget on the
   ladder, search profit must be at least the DP's, and profit must be
   monotone non-decreasing in the budget (budget ``b2 > b1`` replays the
   ``b1`` evaluations exactly and then continues).
3. **Plan validity** — a full pipeline compile under the search allocator
   must pass the complete :class:`repro.verify.validator.ScheduleValidator`
   battery, on the healthy machine *and* on degraded
   (:meth:`repro.pim.config.PimConfig.degraded`) and partitioned
   (:meth:`~repro.pim.config.PimConfig.split`) variants.
4. **Oracle engine identity** — where the instance is enumerable, the
   vectorized exhaustive oracle must agree with the incumbent scan.

The annealing walk's exact answers (placements and
:class:`~repro.core.search.SearchStats`) are pinned separately by
``tests/golden/anneal.json``.

Surfaced by ``python -m repro.verify --search`` and pinned by
``tests/verify/test_differential_search.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.allocation import AllocationProblem, dp_allocate
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges
from repro.core.search import AllocatorPortfolio, AnnealAllocator
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.verify.oracle import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    OracleSizeError,
    exhaustive_allocate,
)
from repro.verify.validator import ScheduleValidator

#: Budget ladder exercised by the monotonicity stage: includes the
#: degenerate 0-eval run (must return the DP seed verbatim) and the
#: default production budget.
DEFAULT_BUDGET_LADDER: Tuple[int, ...] = (0, 100, 500, 2000)


@dataclass
class SearchDifferentialReport:
    """Outcome of the search battery on one (workload, variant) pair.

    Attributes:
        workload: graph name.
        variant: machine variant label (``healthy``, ``degraded``,
            ``shard-0`` ...).
        num_items: competing intermediate results in the instance.
        capacity_slots: per-group cache capacity of the instance.
        profits: achieved profit per method (``dp``, ``anneal``,
            ``portfolio``; plus ``exhaustive`` when enumerable).
        exhaustive_checked: whether oracle equality was enforced.
        budget_profits: anneal profit at every ladder budget, in ladder
            order — the anytime curve the monotone check walks.
        validator_errors: errors from the full validator battery on the
            compiled ``anneal`` plan (empty means the plan is valid).
        failures: human-readable description of every broken promise.
    """

    workload: str
    variant: str
    num_items: int
    capacity_slots: int
    profits: Dict[str, int] = field(default_factory=dict)
    exhaustive_checked: bool = False
    budget_profits: Dict[int, int] = field(default_factory=dict)
    validator_errors: List[str] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.validator_errors

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "variant": self.variant,
            "num_items": self.num_items,
            "capacity_slots": self.capacity_slots,
            "profits": dict(self.profits),
            "exhaustive_checked": self.exhaustive_checked,
            "budget_profits": {
                str(budget): profit
                for budget, profit in self.budget_profits.items()
            },
            "validator_errors": list(self.validator_errors),
            "ok": self.ok,
            "failures": list(self.failures),
        }

    def describe(self) -> str:
        mode = "exhaustive" if self.exhaustive_checked else "dominance"
        curve = " -> ".join(
            f"{budget}:{profit}"
            for budget, profit in self.budget_profits.items()
        )
        verdict = "ok" if self.ok else "FAIL"
        return (
            f"{self.workload}/{self.variant}: {verdict} "
            f"[{mode}] dp={self.profits.get('dp')} "
            f"anneal={self.profits.get('anneal')} "
            f"portfolio={self.profits.get('portfolio')} "
            f"ladder {curve}"
        )


def machine_variants(
    config: PimConfig, shards: int = 2
) -> List[Tuple[str, PimConfig]]:
    """The machine views the search battery sweeps.

    ``healthy`` is the config itself; ``degraded`` drops the highest-id PE
    (the canonical single-fault view); ``shard-i`` are the contiguous
    :meth:`~repro.pim.config.PimConfig.split` partitions. Degenerate
    machines (a single PE cannot lose one, nor be split) contribute only
    the views that exist.
    """
    variants: List[Tuple[str, PimConfig]] = [("healthy", config)]
    if config.num_pes > 1:
        variants.append(
            ("degraded", config.degraded(list(range(config.num_pes - 1))))
        )
    if config.num_pes >= shards:
        for index, shard in enumerate(config.split(shards)):
            variants.append((f"shard-{index}", shard))
    return variants


def allocation_instance(
    graph: TaskGraph, config: PimConfig
) -> Tuple[AllocationProblem, int]:
    """Compile the DP plan and rebuild its allocation instance.

    Mirrors the oracle-differential stage of the verification runner: the
    instance the allocators are compared on is the one the *pipeline*
    actually solved (same kernel, same per-group capacity), not a
    synthetic stand-in. Returns ``(problem, group_width)``.
    """
    plan = ParaConv(config, validate=False).run(graph)
    kernel = plan.schedule.kernel
    timings = analyze_edges(graph, kernel, config)
    capacity = config.total_cache_slots // plan.num_groups
    return AllocationProblem.from_timings(timings, capacity), plan.group_width


def search_differential(
    graph: TaskGraph,
    config: PimConfig,
    budgets: Optional[Sequence[int]] = None,
    validator: Optional[ScheduleValidator] = None,
    oracle_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    seed: int = 0,
    variants: Optional[List[Tuple[str, PimConfig]]] = None,
    with_validator: bool = True,
) -> List[SearchDifferentialReport]:
    """Run the full search battery for one workload, all machine variants."""
    ladder = sorted(set(budgets if budgets is not None
                        else DEFAULT_BUDGET_LADDER))
    validator = validator or ScheduleValidator()
    views = variants if variants is not None else machine_variants(config)
    reports: List[SearchDifferentialReport] = []
    for label, machine in views:
        problem, width = allocation_instance(graph, machine)
        report = SearchDifferentialReport(
            workload=graph.name,
            variant=label,
            num_items=problem.num_items,
            capacity_slots=problem.capacity_slots,
        )

        dp = dp_allocate(problem)
        anneal = AnnealAllocator(seed=seed)(problem)
        portfolio = AllocatorPortfolio(seed=seed)(problem)
        report.profits["dp"] = dp.total_delta_r
        report.profits["anneal"] = anneal.total_delta_r
        report.profits["portfolio"] = portfolio.total_delta_r

        for name, result in (("anneal", anneal), ("portfolio", portfolio)):
            if result.slots_used > problem.capacity_slots:
                report.failures.append(
                    f"{name} is capacity-infeasible: {result.slots_used} "
                    f"slots used against {problem.capacity_slots}"
                )
            if result.total_delta_r < dp.total_delta_r:
                report.failures.append(
                    f"{name} profit {result.total_delta_r} regressed below "
                    f"the DP seed {dp.total_delta_r}"
                )

        try:
            exhaustive = exhaustive_allocate(problem, limit=oracle_limit)
        except OracleSizeError:
            exhaustive = None
        if exhaustive is not None:
            report.exhaustive_checked = True
            report.profits["exhaustive"] = exhaustive.total_delta_r
            for name, result in (("anneal", anneal),
                                 ("portfolio", portfolio)):
                if result.total_delta_r != exhaustive.total_delta_r:
                    report.failures.append(
                        f"{name} profit {result.total_delta_r} != "
                        f"brute-force optimum {exhaustive.total_delta_r} "
                        f"(n={problem.num_items}, "
                        f"S={problem.capacity_slots})"
                    )
            # The vectorized oracle must agree with the incumbent scan.
            object_exhaustive = exhaustive_allocate(
                problem, limit=oracle_limit, engine="object"
            )
            if (
                exhaustive.placements != object_exhaustive.placements
                or exhaustive.cached != object_exhaustive.cached
                or exhaustive.total_delta_r
                != object_exhaustive.total_delta_r
                or exhaustive.slots_used != object_exhaustive.slots_used
            ):
                report.failures.append(
                    "exhaustive oracle engines diverged: columnar="
                    f"{exhaustive.cached!r} object="
                    f"{object_exhaustive.cached!r}"
                )

        previous: Optional[int] = None
        for budget in ladder:
            profit = AnnealAllocator(
                max_evals=budget, seed=seed
            )(problem).total_delta_r
            report.budget_profits[budget] = profit
            if profit < dp.total_delta_r:
                report.failures.append(
                    f"anneal:{budget} profit {profit} below the DP seed "
                    f"{dp.total_delta_r}"
                )
            if previous is not None and profit < previous:
                report.failures.append(
                    f"anytime monotonicity broken: profit {profit} at "
                    f"budget {budget} < {previous} at the previous rung"
                )
            previous = profit

        if with_validator:
            plan = ParaConv(
                machine, allocator_name="anneal", validate=False
            ).run_at_width(graph, width)
            verdict = validator.validate(plan)
            report.validator_errors = [
                str(violation) for violation in verdict.errors()
            ]
        reports.append(report)
    return reports


@dataclass
class SearchSweepOutcome:
    """Aggregate of the search battery over a benchmark sweep."""

    config: PimConfig
    budgets: List[int]
    reports: List[SearchDifferentialReport] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(report.ok for report in self.reports)

    def as_dict(self) -> Dict[str, object]:
        return {
            "config": self.config.to_dict(),
            "budgets": list(self.budgets),
            "ok": self.ok,
            "reports": [report.as_dict() for report in self.reports],
        }

    def summary(self) -> str:
        lines = [
            f"search differential on {self.config.describe()}",
            f"budget ladder: {', '.join(str(b) for b in self.budgets)}",
        ]
        lines.extend(f"  {report.describe()}" for report in self.reports)
        lines.append(f"overall: {'ok' if self.ok else 'FAIL'}")
        return "\n".join(lines)


def search_differential_sweep(
    config: Optional[PimConfig] = None,
    benchmarks: Optional[List[str]] = None,
    budgets: Optional[Sequence[int]] = None,
    validator: Optional[ScheduleValidator] = None,
    oracle_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    seed: int = 0,
) -> SearchSweepOutcome:
    """Run the search battery over the paper benchmarks."""
    from repro.graph.generators import BENCHMARK_SIZES, synthetic_benchmark

    config = config or PimConfig()
    names = benchmarks if benchmarks is not None else list(BENCHMARK_SIZES)
    ladder = sorted(set(budgets if budgets is not None
                        else DEFAULT_BUDGET_LADDER))
    outcome = SearchSweepOutcome(config=config, budgets=ladder)
    for name in names:
        outcome.reports.extend(
            search_differential(
                synthetic_benchmark(name),
                config,
                budgets=ladder,
                validator=validator,
                oracle_limit=oracle_limit,
                seed=seed,
            )
        )
    return outcome
