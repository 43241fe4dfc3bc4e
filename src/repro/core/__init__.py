"""Para-CONV core: retiming, DP data allocation, scheduling (paper Section 3).

The pipeline (:class:`repro.core.paraconv.ParaConv`) combines:

* :mod:`repro.core.scheduler` -- the compacted steady-state kernel schedule
  (the "objective schedule" of Section 3.3.3) and the dependency-honoring
  list scheduler used by baselines,
* :mod:`repro.core.retiming` -- per-edge required retiming values, the
  Theorem 3.1 bound, vertex-retiming propagation and the prologue,
* :mod:`repro.core.cases` -- the six-case classification of Figure 4,
* :mod:`repro.core.allocation` -- the dynamic-programming model ``B[S, m]``
  of Section 3.3 plus ablation allocators,
* :mod:`repro.core.baseline` -- the SPARTA comparison scheme [6].
"""

from repro.core.schedule import (
    KernelSchedule,
    PeriodicSchedule,
    PlacedOp,
    ScheduleError,
    validate_kernel,
    validate_periodic_schedule,
)
from repro.core.scheduler import (
    compact_kernel_schedule,
    list_schedule,
    load_balance_bound,
)
from repro.core.retiming import (
    DeltaRAccounting,
    EdgeTiming,
    RetimingError,
    RetimingSolution,
    analyze_edges,
    delta_r_accounting,
    required_retiming,
    solve_retiming,
)
from repro.core.cases import RetimingCase, classify, classify_all
from repro.core.allocation import (
    AllocationResult,
    AllocationProblem,
    dp_allocate,
    greedy_allocate,
    random_allocate,
    all_edram_allocate,
    oracle_allocate,
)
from repro.core.expansion import ExpandedSchedule, expand, verify_expansion
from repro.core.gantt import render_kernel, render_retiming
from repro.core.iterative import IterativeAllocator
from repro.core.liveness import (
    live_instances,
    liveness_weighted_problem,
    peak_cache_demand,
)
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.core.schedule_io import (
    schedule_from_dict,
    schedule_from_json,
    schedule_to_dict,
    schedule_to_json,
)
from repro.core.baseline import SpartaScheduler, SpartaResult

__all__ = [
    "AllocationProblem",
    "AllocationResult",
    "DeltaRAccounting",
    "EdgeTiming",
    "delta_r_accounting",
    "ExpandedSchedule",
    "KernelSchedule",
    "ParaConv",
    "ParaConvResult",
    "PeriodicSchedule",
    "PlacedOp",
    "RetimingCase",
    "RetimingError",
    "RetimingSolution",
    "ScheduleError",
    "IterativeAllocator",
    "SpartaResult",
    "SpartaScheduler",
    "all_edram_allocate",
    "analyze_edges",
    "classify",
    "classify_all",
    "compact_kernel_schedule",
    "dp_allocate",
    "greedy_allocate",
    "list_schedule",
    "load_balance_bound",
    "oracle_allocate",
    "random_allocate",
    "required_retiming",
    "solve_retiming",
    "expand",
    "live_instances",
    "liveness_weighted_problem",
    "peak_cache_demand",
    "render_kernel",
    "schedule_from_dict",
    "schedule_from_json",
    "schedule_to_dict",
    "schedule_to_json",
    "render_retiming",
    "validate_kernel",
    "validate_periodic_schedule",
    "verify_expansion",
]
