"""The schedule battery and the registry of every battery.

The schedule battery ties the three schedule instruments together over
the paper's workloads: for every (benchmark, allocator) pair the full
pipeline is run and the resulting plan pushed through the
:class:`ScheduleValidator`; per benchmark the DP's allocation instance on
every machine view (healthy, degraded, shards) is differentially checked
against the brute-force oracle (or dominance on large instances); and per
benchmark a seeded fault-injection corpus scores the validator's
detection rate.

:data:`BATTERIES` lists it together with the ``sim`` differential and
the ``scenarios`` engine, in the order ``python -m repro.verify`` runs
them.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.cnn.workloads import load_workload
from repro.core.allocation import ALLOCATORS
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.graph.generators import BENCHMARK_SIZES
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.verify.differential_sim import SIM_BATTERY, plans_at_dp_width
from repro.verify.harness import (
    Battery,
    CaseReport,
    benchmark_names,
    machine,
    option,
    positive_int,
)
from repro.verify.hooks import compile_invariant_hooks
from repro.verify.mutation import FaultDetectionReport, fault_detection_report
from repro.verify.oracle import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    MAX_EXHAUSTIVE_LIMIT,
    DifferentialReport,
    view_differentials,
)
from repro.verify.scenarios import SCENARIOS_BATTERY
from repro.verify.validator import ScheduleValidator
from repro.verify.violations import VerificationReport


@dataclass
class WorkloadVerification:
    """Everything the schedule instruments verified about one workload."""

    workload: str
    reports: Dict[str, VerificationReport] = field(default_factory=dict)
    #: DP vs the oracle per machine view (empty when the stage is off).
    differentials: Dict[str, DifferentialReport] = field(default_factory=dict)
    faults: Optional[FaultDetectionReport] = None

    @property
    def ok(self) -> bool:
        return self.case_report().ok

    def case_report(self) -> CaseReport:
        """This workload as one case of the schedule battery."""
        report = CaseReport(battery="schedule", case=self.workload)
        report.facts["errors"] = sum(
            len(r.errors()) for r in self.reports.values()
        )
        report.facts["warnings"] = sum(
            len(r.warnings()) for r in self.reports.values()
        )
        for name, verdict in self.reports.items():
            report.failures.extend(
                f"{name}: {violation}" for violation in verdict.errors()
            )
        if self.differentials:
            report.facts["oracle"] = ",".join(
                f"{view}:"
                f"{'exhaustive' if diff.exhaustive_checked else 'dominance'}"
                for view, diff in self.differentials.items()
            )
        for view, diff in self.differentials.items():
            report.failures.extend(
                f"oracle[{view}]: {text}" for text in diff.failures
            )
        if self.faults is not None:
            detected = len(self.faults.detected)
            report.facts["faults"] = (
                f"{detected}/{detected + len(self.faults.missed)}"
            )
            report.failures.extend(
                f"missed injected fault: {name}" for name in self.faults.missed
            )
        return report


def verify_workload(
    graph: TaskGraph,
    config: PimConfig,
    allocators: Optional[List[str]] = None,
    validator: Optional[ScheduleValidator] = None,
    oracle_limit: int = 16,
    with_differential: bool = True,
    with_faults: bool = True,
    fault_seed: int = 0,
) -> WorkloadVerification:
    """Run the three schedule instruments for one workload.

    Every allocator is validated at the DP plan's width (see
    :func:`~repro.verify.differential_sim.plans_at_dp_width`).
    """
    names = allocators if allocators is not None else sorted(ALLOCATORS)
    validator = validator or ScheduleValidator()
    outcome = WorkloadVerification(workload=graph.name)

    # The DP compile runs under the per-pass invariant hooks, so a pipeline
    # regression surfaces as a PassInvariantError *naming the broken pass*
    # (the whole-plan validator below only sees the end product).
    dp_plan: ParaConvResult = ParaConv(
        config, validate=False, invariant_hooks=compile_invariant_hooks()
    ).run(graph)
    for name, plan in plans_at_dp_width(graph, config, names, dp_plan).items():
        outcome.reports[name] = validator.validate(plan)

    if with_differential:
        outcome.differentials = view_differentials(
            graph, config, exhaustive_limit=oracle_limit,
            plans={"healthy": dp_plan},
        )
    if with_faults:
        outcome.faults = fault_detection_report(
            dp_plan, validator=validator, seed=fault_seed
        )
    return outcome


def run_verification_sweep(
    config: Optional[PimConfig] = None,
    benchmarks: Optional[List[str]] = None,
    allocators: Optional[List[str]] = None,
    validator: Optional[ScheduleValidator] = None,
    oracle_limit: int = 16,
    with_differential: bool = True,
    with_faults: bool = True,
    fault_seed: int = 0,
) -> List[WorkloadVerification]:
    """Verify benchmarks x allocators on one machine configuration.

    ``benchmarks`` accepts any name in the workload registry — the 12
    paper benchmarks (the default sweep), the CNN-derived partitions and
    the ``randwired-*`` irregular-graph stress set all go through the
    identical battery.
    """
    config = config or PimConfig()
    names = benchmarks if benchmarks is not None else list(BENCHMARK_SIZES)
    allocator_names = (
        allocators if allocators is not None else sorted(ALLOCATORS)
    )
    return [
        verify_workload(
            load_workload(name),
            config,
            allocators=allocator_names,
            validator=validator,
            oracle_limit=oracle_limit,
            with_differential=with_differential,
            with_faults=with_faults,
            fault_seed=fault_seed,
        )
        for name in names
    ]


def oracle_limit(text: str) -> int:
    """argparse type: an enumeration limit in ``1..MAX_EXHAUSTIVE_LIMIT``."""
    value = positive_int(text)
    if value > MAX_EXHAUSTIVE_LIMIT:
        raise argparse.ArgumentTypeError(
            f"must be in 1..{MAX_EXHAUSTIVE_LIMIT}, got {value}"
        )
    return value


def run_schedule_battery(
    args: argparse.Namespace, validator: ScheduleValidator
) -> List[CaseReport]:
    """One case per benchmark: validator, oracle and mutation corpus."""
    return [workload.case_report() for workload in run_verification_sweep(
        config=machine(args),
        benchmarks=benchmark_names(args),
        allocators=args.allocators,
        validator=validator,
        oracle_limit=args.oracle_limit,
        with_differential=not args.no_oracle,
        with_faults=not args.no_mutations,
        fault_seed=args.seed,
    )]


SCHEDULE_BATTERY = Battery(
    name="schedule",
    help="validate every benchmark x allocator plan against the paper's "
         "invariants, hold the DP allocator to the brute-force oracle on "
         "the healthy, degraded and shard views of the machine, and score "
         "the validator on an injected-fault corpus",
    run=run_schedule_battery,
    options=(
        option("--oracle-limit", type=oracle_limit,
               default=DEFAULT_EXHAUSTIVE_LIMIT,
               help="max competing results for exhaustive enumeration, "
                    f"1..{MAX_EXHAUSTIVE_LIMIT} "
                    f"(default {DEFAULT_EXHAUSTIVE_LIMIT})"),
        option("--no-oracle", action="store_true",
               help="skip the oracle-differential stage"),
        option("--no-mutations", action="store_true",
               help="skip the fault-injection stage"),
    ),
    always=True,
)

#: Every battery, in run order. The schedule battery runs on every
#: invocation; each other one runs under ``--<name>`` or ``--all``.
BATTERIES: Tuple[Battery, ...] = (
    SCHEDULE_BATTERY,
    SIM_BATTERY,
    SCENARIOS_BATTERY,
)
