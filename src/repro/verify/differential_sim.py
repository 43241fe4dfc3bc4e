"""Differential verification of the steady-state simulation engine.

The steady-state engine (:class:`~repro.sim.modes.SimMode.STEADY_STATE`)
claims a strong equivalence: for any plan and any iteration count, its
fast-forwarded run produces *exactly* the same aggregate measurements as
the event-by-event full unroll -- identical traffic counters, energy,
spills, lateness and realized makespan. This module machine-checks that
claim the same way :mod:`repro.verify.oracle` checks the DP allocator:
run both engines on the same plan and compare their
:meth:`~repro.sim.executor.ExecutionTrace.aggregate_signature` mappings
field by field.

A mismatch is a *simulator* bug, not a schedule bug -- it means the
fingerprint convergence rule accepted a machine state that was not
actually periodic, or the O(1) splice replayed the wrong per-round
deltas. Either would silently corrupt every simulation-backed experiment,
which is why this check rides in the ``python -m repro.verify`` CI gate
(``--sim``).
"""

from __future__ import annotations

import argparse
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cnn.workloads import load_workload
from repro.core.allocation import ALLOCATORS
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink
from repro.verify.harness import (
    Battery,
    CaseReport,
    benchmark_names,
    diff_signatures,
    full_unroll_signature,
    machine,
    option,
    positive_int,
    run_case,
)
from repro.verify.validator import ScheduleValidator

#: iteration counts exercised by default: trivial (no steady state can
#: engage), short (transient-dominated) and paper-scale (fast-forward
#: dominates when the workload converges).
DEFAULT_SIM_ITERATIONS: Tuple[int, ...] = (1, 20, 1000)


def differential_simulate(
    plan: ParaConvResult,
    config: Optional[PimConfig] = None,
    iterations: int = 1000,
    label: Optional[str] = None,
) -> CaseReport:
    """Hold the steady-state mode to the full-unroll oracle on one plan.

    Both modes run from a fresh machine with a :class:`NullSink` (the
    signature is sink-independent by construction). Every field of
    :meth:`~repro.sim.executor.ExecutionTrace.aggregate_signature` must
    match exactly -- no tolerance: the fast-forward splice is integer
    arithmetic, so any deviation at all is a bug. The steady run's
    convergence observables are recorded as facts (``converged_round``
    None: the engine ran the whole horizon event by event, which is still
    a valid -- if unaccelerated -- outcome).
    """
    machine_config = config or plan.config
    case = f"{label or plan.graph.name} N={iterations}"
    with run_case("sim", case) as report:
        reference = full_unroll_signature(plan, machine_config, iterations)
        steady = ScheduleExecutor(
            machine_config, mode=SimMode.STEADY_STATE
        ).execute(plan, iterations=iterations, sink=NullSink())
        report.facts.update(
            converged_round=steady.converged_round,
            converged_period=steady.converged_period,
            rounds_fast_forwarded=steady.rounds_fast_forwarded,
        )
        report.mismatches.extend(
            diff_signatures(reference, steady.aggregate_signature())
        )
    return report


def sim_differential_battery(
    plan: ParaConvResult,
    config: Optional[PimConfig] = None,
    iteration_counts: Sequence[int] = DEFAULT_SIM_ITERATIONS,
    label: Optional[str] = None,
) -> List[CaseReport]:
    """One plan across several batch sizes (transient and steady regimes)."""
    return [
        differential_simulate(plan, config=config, iterations=n, label=label)
        for n in iteration_counts
    ]


def plans_at_dp_width(
    graph: TaskGraph,
    config: PimConfig,
    allocators: Sequence[str],
    dp_plan: Optional[ParaConvResult] = None,
) -> Dict[str, ParaConvResult]:
    """Every allocator's plan at the width the DP pipeline picked.

    Reusing the DP's width validates every allocator on the same
    kernel/grouping decision, isolating the allocation policy exactly like
    the ablation experiments.
    """
    dp_plan = dp_plan or ParaConv(config, validate=False).run(graph)
    return {
        name: dp_plan if name == "dp" else ParaConv(
            config, allocator_name=name, validate=False
        ).run_at_width(graph, dp_plan.group_width)
        for name in allocators
    }


def run_sim_battery(
    args: argparse.Namespace, validator: ScheduleValidator
) -> List[CaseReport]:
    """Every benchmark x allocator plan at every ``--sim-iterations``."""
    config = machine(args)
    counts = args.sim_iterations or DEFAULT_SIM_ITERATIONS
    reports: List[CaseReport] = []
    for name in benchmark_names(args):
        plans = plans_at_dp_width(
            load_workload(name), config, args.allocators or sorted(ALLOCATORS)
        )
        for allocator, plan in plans.items():
            reports.extend(sim_differential_battery(
                plan, config=config, iteration_counts=counts,
                label=f"{name}/{allocator}",
            ))
    return reports


SIM_BATTERY = Battery(
    name="sim",
    help="differentially verify the steady-state simulation mode against "
         "the full unroll (every aggregate must match exactly)",
    run=run_sim_battery,
    options=(
        option("--sim-iterations", type=positive_int, nargs="+",
               metavar="N", default=None,
               help="batch sizes for the --sim stage "
                    "(default: 1 20 1000)"),
    ),
)
