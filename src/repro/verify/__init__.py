"""Machine verification of Para-CONV schedules, allocations and serving.

The schedule instruments check compiled plans directly:

* :class:`ScheduleValidator` — checks a compiled plan against the paper's
  structural invariants (dependency order across retimed iteration
  instances, PE exclusion, cache capacity, prologue shape, profit
  accounting) and returns a structured :class:`VerificationReport`.
* :func:`exhaustive_allocate` / :func:`differential_check` — a brute-force
  subset oracle that pins the DP allocator to the true optimum on small
  instances and to dominance relations on large ones;
  :func:`~repro.verify.oracle.view_differentials` runs it on every
  machine view (healthy, degraded, shards).
* :func:`inject_faults` / :func:`fault_detection_report` — a seeded
  mutation corpus that scores the validator's ability to catch every
  class of planted invariant violation.

:data:`BATTERIES` registers the batteries ``python -m repro.verify``
runs: ``schedule`` drives the three instruments over the benchmarks
(:func:`run_verification_sweep`); ``sim``, ``faults``, ``fleet``,
``tenancy`` and ``rewire`` each hold one part of the system to
a reference. Every battery returns :class:`CaseReport` lists built with
the shared helpers of :mod:`repro.verify.harness`.
"""

from repro.verify.differential_failover import failover_differential
from repro.verify.differential_fleet import fleet_differential
from repro.verify.differential_rewire import (
    randwired_property_battery,
    rewire_case,
    rewire_differential,
)
from repro.verify.differential_sim import (
    DEFAULT_SIM_ITERATIONS,
    differential_simulate,
    sim_differential_battery,
)
from repro.verify.differential_tenancy import (
    TENANCY_SCENARIOS,
    tenancy_differential,
)
from repro.verify.harness import Battery, CaseReport, Mismatch
from repro.verify.hooks import (
    check_allocation_feasible,
    check_kernel_feasible,
    check_retiming_legal,
    check_schedule_semantics,
    check_theorem_bounds,
    compile_invariant_hooks,
)
from repro.verify.mutation import (
    MUTATORS,
    FaultDetectionReport,
    InjectedFault,
    clone_result,
    fault_detection_report,
    inject_faults,
)
from repro.verify.oracle import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    DifferentialReport,
    OracleSizeError,
    differential_check,
    exhaustive_allocate,
)
from repro.verify.runner import (
    BATTERIES,
    SweepOutcome,
    WorkloadVerification,
    run_verification_sweep,
    verify_workload,
)
from repro.verify.validator import (
    CAPACITY_OBLIVIOUS_METHODS,
    CHECK_CATALOG,
    ScheduleValidator,
    verify_result,
)
from repro.verify.violations import (
    Severity,
    VerificationError,
    VerificationReport,
    Violation,
    worst_of,
)

__all__ = [
    "BATTERIES",
    "CAPACITY_OBLIVIOUS_METHODS",
    "CHECK_CATALOG",
    "DEFAULT_EXHAUSTIVE_LIMIT",
    "DEFAULT_SIM_ITERATIONS",
    "Battery",
    "CaseReport",
    "DifferentialReport",
    "FaultDetectionReport",
    "InjectedFault",
    "MUTATORS",
    "Mismatch",
    "OracleSizeError",
    "ScheduleValidator",
    "Severity",
    "SweepOutcome",
    "TENANCY_SCENARIOS",
    "VerificationError",
    "VerificationReport",
    "Violation",
    "WorkloadVerification",
    "check_allocation_feasible",
    "check_kernel_feasible",
    "check_retiming_legal",
    "check_schedule_semantics",
    "check_theorem_bounds",
    "clone_result",
    "compile_invariant_hooks",
    "differential_check",
    "differential_simulate",
    "exhaustive_allocate",
    "failover_differential",
    "fault_detection_report",
    "fleet_differential",
    "inject_faults",
    "randwired_property_battery",
    "rewire_case",
    "rewire_differential",
    "run_verification_sweep",
    "sim_differential_battery",
    "tenancy_differential",
    "verify_result",
    "verify_workload",
    "worst_of",
]
