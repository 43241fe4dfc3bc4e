"""Fault-injection differential for the runtime failover path.

The serving stack claims a strong recovery property: when a unit dies
mid-batch, the session degrades the machine to the survivors, recompiles
and replays the batch from iteration zero — and the result is *exactly*
what a cold compile on the degraded configuration would have produced.
No spliced partial work, no drift. This module machine-checks that claim
end to end:

1. serve a batch through an :class:`~repro.runtime.session.InferenceSession`
   carrying a single-event :class:`~repro.pim.faults.FaultModel` (the unit
   dies at a chosen iteration boundary, the session fails over);
2. independently build the degraded machine with
   :meth:`~repro.pim.config.PimConfig.degraded`, compile it from scratch
   and execute the same batch on the full-unroll oracle engine;
3. compare the two :meth:`~repro.sim.executor.ExecutionTrace.aggregate_signature`
   mappings field by field (exact match — the replay is deterministic);
4. push the degraded plan through the full
   :class:`~repro.verify.validator.ScheduleValidator` battery (a degraded
   machine is a smaller-but-ordinary machine; every paper invariant must
   still hold);
5. serve the same faulted batch through a *second* session sharing the
   plan cache and require ``failover_recompiles == 0`` — repeat faults
   must hit the warm degraded plan, or production failover would pay a
   full compile on every strike.

A mismatch is a *failover* bug (stale executor state, mis-compacted
fault trace, wrong cache key), which is why this check rides in
``python -m repro.verify --faults``.
"""

from __future__ import annotations

import argparse
from typing import List, Mapping, Optional, Tuple

from repro.cnn.workloads import load_workload
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.runtime.plan_cache import PlanCache
from repro.runtime.session import InferenceSession
from repro.verify.harness import (
    Battery,
    CaseReport,
    Mismatch,
    benchmark_names,
    hold_to_cold_compile,
    machine,
    non_negative_int,
    option,
    run_case,
)
from repro.verify.validator import ScheduleValidator

__all__ = ["FAULTS_BATTERY", "failover_differential", "failover_verdict"]


def failover_verdict(facts: Mapping[str, object]) -> List[str]:
    """The failover invariants over one case's facts.

    The faulted session must observe exactly one fault and fail over
    exactly once (zero means the scenario was vacuous); the warm repeat,
    when it ran, must replay the fault and recompile nothing.
    """
    failures = []
    for name in ("faults_observed", "failovers"):
        if facts.get(name) != 1:
            failures.append(f"{name}={facts.get(name)} (want exactly 1)")
    if facts.get("warm_recompiles") not in (None, 0):
        failures.append(
            f"warm repeat recompiled {facts['warm_recompiles']} time(s)"
        )
    if facts.get("warm_faults") not in (None, 1):
        failures.append(f"warm repeat observed {facts['warm_faults']} faults")
    return failures


def _degraded_reference(
    config: PimConfig, unit: str, unit_id: int, num_vaults: int
) -> Tuple[PimConfig, int]:
    """The degraded machine built *independently* of the session."""
    if unit == FAULT_UNIT_PE:
        survivors = [p for p in range(config.num_pes) if p != unit_id]
        return config.degraded(survivors), num_vaults
    surviving_vaults = [v for v in range(num_vaults) if v != unit_id]
    return (
        config.degraded(list(range(config.num_pes)), surviving_vaults),
        len(surviving_vaults),
    )


def failover_differential(
    graph: TaskGraph,
    config: PimConfig,
    unit: str = FAULT_UNIT_PE,
    unit_id: int = 0,
    fault_iteration: int = 3,
    iterations: int = 20,
    allocator: str = "dp",
    num_vaults: int = 32,
    cache: Optional[PlanCache] = None,
    validator: Optional[ScheduleValidator] = None,
    check_warm: bool = True,
) -> CaseReport:
    """Assert faulted-then-failed-over == cold compile on degraded config.

    ``cache`` may be shared across calls; a fresh private cache is used
    when omitted so the warm-repeat check is self-contained either way.
    """
    if unit not in (FAULT_UNIT_PE, FAULT_UNIT_VAULT):
        raise ValueError(f"unit must be 'pe' or 'vault', got {unit!r}")
    cache = cache if cache is not None else PlanCache()
    fault_model = FaultModel.single(unit, unit_id, fault_iteration)

    def serve() -> InferenceSession:
        session = InferenceSession(
            graph,
            config,
            allocator=allocator,
            cache=cache,
            num_vaults=num_vaults,
            fault_model=fault_model,
        )
        session.run(iterations)
        return session

    label = f"{graph.name} {unit}{unit_id}@{fault_iteration} N={iterations}"
    with run_case("faults", label, failover_verdict) as report:
        session = serve()
        report.facts["faults_observed"] = session.faults_observed
        report.facts["failovers"] = session.failovers
        assert session.last_trace is not None

        degraded_config, degraded_vaults = _degraded_reference(
            config, unit, unit_id, num_vaults
        )
        hold_to_cold_compile(
            report,
            session.last_trace.aggregate_signature(),
            graph,
            degraded_config,
            iterations,
            allocator=allocator,
            num_vaults=degraded_vaults,
            validator=validator or ScheduleValidator(),
        )
        # The session must be serving exactly the reference machine.
        served = session.active_config.fingerprint()
        if served != degraded_config.fingerprint():
            report.mismatches.append(Mismatch(
                "", "config_fingerprint", degraded_config.fingerprint(), served
            ))

        if check_warm:
            warm = serve()
            report.facts["warm_recompiles"] = warm.failover_recompiles
            report.facts["warm_faults"] = warm.faults_observed
    return report


def run_faults_battery(
    args: argparse.Namespace, validator: ScheduleValidator
) -> List[CaseReport]:
    """One failover case per benchmark."""
    config = machine(args)
    return [
        failover_differential(
            load_workload(name),
            config,
            unit=args.fault_unit,
            unit_id=args.fault_unit_id,
            fault_iteration=args.fault_iteration,
            validator=validator,
        )
        for name in benchmark_names(args)
    ]


FAULTS_BATTERY = Battery(
    name="faults",
    help="differentially verify runtime failover: a batch that hits an "
         "injected unit failure and fails over must match a cold compile "
         "on the degraded machine, and a warm repeat of the same fault "
         "must not recompile",
    run=run_faults_battery,
    options=(
        option("--fault-unit", choices=("pe", "vault"), default="pe",
               help="unit type the --faults stage kills (default pe)"),
        option("--fault-unit-id", type=non_negative_int, default=0,
               help="unit id the --faults stage kills (default 0)"),
        option("--fault-iteration", type=non_negative_int, default=3,
               help="iteration boundary at which the unit dies "
                    "(default 3)"),
    ),
)
