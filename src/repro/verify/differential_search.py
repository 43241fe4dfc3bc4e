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

import argparse
from typing import Any, List, Mapping, Optional, Sequence, Tuple

from repro.cnn.workloads import load_workload
from repro.core.allocation import AllocationProblem, dp_allocate
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges
from repro.core.search import AllocatorPortfolio, AnnealAllocator
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.verify.harness import (
    Battery,
    CaseReport,
    benchmark_names,
    machine,
    non_negative_int,
    option,
    run_case,
)
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




def search_verdict(facts: Mapping[str, Any]) -> List[str]:
    """The search invariants over one case's facts.

    The annealer and the portfolio must be capacity-feasible, never below
    the DP seed, and equal to the brute-force optimum when one was
    enumerated; both exhaustive-oracle engines must agree; and the anytime
    curve must stay at or above the DP seed and never fall as the budget
    grows.
    """
    failures = []
    dp = facts["dp"]
    exhaustive = facts.get("exhaustive")
    for name in ("anneal", "portfolio"):
        profit, slots = facts[name], facts[f"{name}_slots"]
        if slots > facts["capacity_slots"]:
            failures.append(
                f"{name} is capacity-infeasible: {slots} slots used against "
                f"{facts['capacity_slots']}"
            )
        if profit < dp:
            failures.append(
                f"{name} profit {profit} regressed below the DP seed {dp}"
            )
        if exhaustive is not None and profit != exhaustive:
            failures.append(
                f"{name} profit {profit} != brute-force optimum {exhaustive} "
                f"(n={facts['num_items']}, S={facts['capacity_slots']})"
            )
    if facts.get("oracle_engines_agree") is False:
        failures.append("exhaustive oracle engines diverged")
    previous: Optional[int] = None
    for budget, profit in facts["ladder"].items():
        if profit < dp:
            failures.append(
                f"anneal:{budget} profit {profit} below the DP seed {dp}"
            )
        if previous is not None and profit < previous:
            failures.append(
                f"anytime monotonicity broken: profit {profit} at budget "
                f"{budget} < {previous} at the previous rung"
            )
        previous = profit
    return failures


def search_differential(
    graph: TaskGraph,
    config: PimConfig,
    budgets: Optional[Sequence[int]] = None,
    validator: Optional[ScheduleValidator] = None,
    oracle_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    seed: int = 0,
) -> List[CaseReport]:
    """Run the full search battery for one workload, all machine variants.

    Each variant's ``anneal`` plan is also compiled at the DP's width and
    pushed through the full validator; its errors are failures.
    """
    ladder = sorted(set(budgets if budgets is not None
                        else DEFAULT_BUDGET_LADDER))
    validator = validator or ScheduleValidator()
    reports: List[CaseReport] = []
    for label, machine_config in machine_variants(config):
        with run_case(
            "search", f"{graph.name}/{label}", search_verdict
        ) as report:
            problem, width = allocation_instance(graph, machine_config)
            facts = report.facts
            facts["num_items"] = problem.num_items
            facts["capacity_slots"] = problem.capacity_slots
            facts["dp"] = dp_allocate(problem).total_delta_r
            for name, allocator in (
                ("anneal", AnnealAllocator(seed=seed)),
                ("portfolio", AllocatorPortfolio(seed=seed)),
            ):
                result = allocator(problem)
                facts[name] = result.total_delta_r
                facts[f"{name}_slots"] = result.slots_used
            try:
                exhaustive = exhaustive_allocate(problem, limit=oracle_limit)
            except OracleSizeError:
                exhaustive = None
            facts["mode"] = "dominance" if exhaustive is None else "exhaustive"
            if exhaustive is not None:
                facts["exhaustive"] = exhaustive.total_delta_r
                scan = exhaustive_allocate(
                    problem, limit=oracle_limit, engine="object"
                )
                facts["oracle_engines_agree"] = (
                    exhaustive.placements == scan.placements
                    and exhaustive.cached == scan.cached
                    and exhaustive.total_delta_r == scan.total_delta_r
                    and exhaustive.slots_used == scan.slots_used
                )
            facts["ladder"] = {
                budget: AnnealAllocator(max_evals=budget, seed=seed)(
                    problem
                ).total_delta_r
                for budget in ladder
            }
            plan = ParaConv(
                machine_config, allocator_name="anneal", validate=False
            ).run_at_width(graph, width)
            report.failures.extend(
                f"anneal plan: {violation}"
                for violation in validator.validate(plan).errors()
            )
        reports.append(report)
    return reports


def run_search_battery(
    args: argparse.Namespace, validator: ScheduleValidator
) -> List[CaseReport]:
    """Every benchmark on every machine variant."""
    config = machine(args)
    return [
        report
        for name in benchmark_names(args)
        for report in search_differential(
            load_workload(name),
            config,
            budgets=args.search_budgets,
            validator=validator,
            oracle_limit=args.oracle_limit,
            seed=args.seed,
        )
    ]


SEARCH_BATTERY = Battery(
    name="search",
    help="differentially verify the search allocators: oracle equality on "
         "enumerable instances, the DP lower bound and anytime monotonicity "
         "at every ladder budget, full plan validation on healthy, degraded "
         "and partitioned machines, and vectorized/scan exhaustive-oracle "
         "identity",
    run=run_search_battery,
    options=(
        option("--search-budgets", type=non_negative_int, nargs="+",
               metavar="N", default=None,
               help="budget ladder for the --search stage "
                    "(default: 0 100 500 2000)"),
    ),
)
