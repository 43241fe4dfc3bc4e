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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.paraconv import ParaConvResult
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

#: iteration counts exercised by default: trivial (no steady state can
#: engage), short (transient-dominated) and paper-scale (fast-forward
#: dominates when the workload converges).
DEFAULT_SIM_ITERATIONS: Tuple[int, ...] = (1, 20, 1000)

@dataclass(frozen=True)
class SimMismatch:
    """One aggregate field where the two engines disagreed."""

    field: str
    full_value: object
    steady_value: object

    def describe(self) -> str:
        return (
            f"{self.field}: full={self.full_value!r} "
            f"steady={self.steady_value!r}"
        )


@dataclass
class SimDifferentialReport:
    """Outcome of one full-vs-steady comparison on one plan."""

    workload: str
    iterations: int
    mismatches: List[SimMismatch] = field(default_factory=list)
    #: steady-engine observability (None converged_round: the engine ran
    #: the whole horizon event by event, which is still a valid -- if
    #: unaccelerated -- outcome).
    converged_round: Optional[int] = None
    converged_period: Optional[int] = None
    rounds_fast_forwarded: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def as_dict(self) -> Dict[str, object]:
        return {
            "workload": self.workload,
            "iterations": self.iterations,
            "ok": self.ok,
            "mismatches": [
                {
                    "field": m.field,
                    "full": repr(m.full_value),
                    "steady": repr(m.steady_value),
                }
                for m in self.mismatches
            ],
            "converged_round": self.converged_round,
            "converged_period": self.converged_period,
            "rounds_fast_forwarded": self.rounds_fast_forwarded,
        }

    def describe(self) -> str:
        ff = (
            f"converged@{self.converged_round}"
            f"(q={self.converged_period}) "
            f"ff={self.rounds_fast_forwarded}"
            if self.converged_round is not None
            else "no-convergence"
        )
        if self.ok:
            return f"{self.workload} N={self.iterations}: ok [{ff}]"
        details = "; ".join(m.describe() for m in self.mismatches)
        return f"{self.workload} N={self.iterations}: MISMATCH [{ff}] {details}"


def differential_simulate(
    plan: ParaConvResult,
    config: Optional[PimConfig] = None,
    iterations: int = 1000,
    num_vaults: int = 32,
) -> SimDifferentialReport:
    """Hold the steady-state mode to the full-unroll oracle on one plan.

    Both modes run from a fresh machine with a :class:`NullSink` (the
    signature is sink-independent by construction). Every field of
    :meth:`~repro.sim.executor.ExecutionTrace.aggregate_signature` must
    match exactly -- no tolerance: the fast-forward splice is integer
    arithmetic, so any deviation at all is a bug.
    """
    machine = config or plan.config

    def run(mode: SimMode):
        return ScheduleExecutor(
            machine, num_vaults=num_vaults, mode=mode
        ).execute(plan, iterations=iterations, sink=NullSink())

    reference = run(SimMode.FULL_UNROLL).aggregate_signature()
    steady = run(SimMode.STEADY_STATE)
    report = SimDifferentialReport(
        workload=plan.graph.name,
        iterations=iterations,
        converged_round=steady.converged_round,
        converged_period=steady.converged_period,
        rounds_fast_forwarded=steady.rounds_fast_forwarded,
    )
    candidate = steady.aggregate_signature()
    for key in sorted(set(reference) | set(candidate)):
        lhs = reference.get(key)
        rhs = candidate.get(key)
        if lhs != rhs:
            report.mismatches.append(SimMismatch(
                field=key, full_value=lhs, steady_value=rhs
            ))
    return report


def sim_differential_battery(
    plan: ParaConvResult,
    config: Optional[PimConfig] = None,
    iteration_counts: Sequence[int] = DEFAULT_SIM_ITERATIONS,
    num_vaults: int = 32,
) -> List[SimDifferentialReport]:
    """One plan across several batch sizes (transient and steady regimes)."""
    return [
        differential_simulate(
            plan, config=config, iterations=n, num_vaults=num_vaults
        )
        for n in iteration_counts
    ]
