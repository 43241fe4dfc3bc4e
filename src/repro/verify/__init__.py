"""Machine verification of Para-CONV schedules, allocations and serving.

* :class:`ScheduleValidator` checks a compiled plan against the paper's
  structural invariants and returns a :class:`VerificationReport`.
* :func:`exhaustive_allocate` / :func:`differential_check` pin the DP
  allocator to a brute-force oracle (dominance on large instances), on
  every machine view (:func:`~repro.verify.oracle.view_differentials`).
* :func:`inject_faults` / :func:`fault_detection_report` score the
  validator on a seeded corpus of planted invariant violations.
* :func:`run_scenario` drives one serving tier through a
  :class:`Scenario`'s events and checks books, batches and isolation
  after every step; :func:`scenario_table` lists every case.

:data:`BATTERIES` registers what ``python -m repro.verify`` runs:
``schedule`` (the first three over the benchmarks), ``sim`` (the
steady-state engine against the full unroll) and ``scenarios`` (the
scenario table). Every battery returns :class:`CaseReport` lists built
with the helpers of :mod:`repro.verify.harness`.
"""

from repro.verify.differential_sim import (
    DEFAULT_SIM_ITERATIONS,
    differential_simulate,
    sim_differential_battery,
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
    WorkloadVerification,
    run_verification_sweep,
    verify_workload,
)
from repro.verify.scenarios import Scenario, run_scenario, scenario_table
from repro.verify.validator import (
    CAPACITY_OBLIVIOUS_METHODS,
    CHECK_CATALOG,
    ScheduleValidator,
)
from repro.verify.violations import (
    Severity,
    VerificationError,
    VerificationReport,
    Violation,
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
    "Scenario",
    "ScheduleValidator",
    "Severity",
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
    "fault_detection_report",
    "inject_faults",
    "run_scenario",
    "run_verification_sweep",
    "scenario_table",
    "sim_differential_battery",
    "verify_workload",
]
