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

from repro._lazy import lazy_exports

# Imported eagerly: this module registers the "iterative" allocator, which
# every process's ALLOCATORS must hold, whatever it imported first.
from repro.core.iterative import IterativeAllocator

#: module -> the names this package exports from it, each imported on first
#: access (PEP 562), so a compile loads no baseline, Gantt renderer,
#: expansion, liveness or schedule serializer module.
_EXPORTS = {
    "repro.core.schedule": (
        "KernelSchedule", "PeriodicSchedule", "PlacedOp", "ScheduleError",
        "validate_kernel", "validate_periodic_schedule",
    ),
    "repro.core.scheduler": (
        "compact_kernel_schedule", "list_schedule", "load_balance_bound",
    ),
    "repro.core.retiming": (
        "DeltaRAccounting", "EdgeTiming", "RetimingError",
        "RetimingSolution", "analyze_edges", "delta_r_accounting",
        "required_retiming", "solve_retiming",
    ),
    "repro.core.cases": ("RetimingCase", "classify", "classify_all"),
    "repro.core.allocation": (
        "AllocationProblem", "AllocationResult", "all_edram_allocate",
        "dp_allocate", "greedy_allocate", "oracle_allocate",
        "random_allocate",
    ),
    "repro.core.expansion": ("ExpandedSchedule", "expand", "verify_expansion"),
    "repro.core.gantt": ("render_kernel", "render_retiming"),
    "repro.core.iterative": ("IterativeAllocator",),
    "repro.core.liveness": (
        "live_instances", "liveness_weighted_problem", "peak_cache_demand",
    ),
    "repro.core.paraconv": ("ParaConv", "ParaConvResult"),
    "repro.core.schedule_io": (
        "schedule_from_dict", "schedule_from_json", "schedule_to_dict",
        "schedule_to_json",
    ),
    "repro.core.baseline": ("SpartaResult", "SpartaScheduler"),
}

__getattr__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
