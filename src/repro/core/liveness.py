"""Cache liveness analysis and liveness-aware allocation (extension).

A discovered gap in the paper's capacity model: an intermediate result
whose edge carries relative retiming ``delta > 0`` is produced ``delta``
iterations before it is consumed, so ``delta + 1`` instances of it are
alive concurrently in steady state. The Section 3.3 dynamic program
charges each cached result ``sp_m`` slots *once*; on the simulated machine
this shows up as transient cache overflows ("spills" in
:class:`repro.sim.executor.ExecutionTrace`).

This module provides:

* :func:`live_instances` / :func:`peak_cache_demand` -- the analysis;
* :func:`liveness_weighted_problem` -- an allocation instance whose item
  weights are ``sp_m * (delta_cache + 1)``, making the DP's capacity
  accounting sound. Running the pipeline with it (see
  ``ParaConv(..., liveness_aware=True)``) eliminates simulator spills at
  the cost of caching fewer results.
"""

from __future__ import annotations

from typing import Mapping, Optional, Sequence, Tuple

from repro.core.allocation import AllocationItem, AllocationProblem
from repro.core.retiming import EdgeTiming, EdgeTimings, RetimingError

EdgeKey = Tuple[int, int]


def live_instances(delta: int) -> int:
    """Concurrent live instances of a result with relative retiming ``delta``.

    The instance consumed in round ``r`` was produced in round
    ``r - delta``; during any round, instances for rounds
    ``r .. r + delta`` coexist.
    """
    if delta < 0:
        raise RetimingError("delta must be >= 0")
    return delta + 1


def peak_cache_demand(
    timings: Mapping[EdgeKey, EdgeTiming],
    cached: Mapping[EdgeKey, bool],
) -> int:
    """Steady-state peak cache occupancy (slots) of a placement choice."""
    total = 0
    for key, timing in timings.items():
        if cached.get(key, False):
            total += timing.slots * live_instances(timing.delta_cache)
    return total


def liveness_weighted_problem(
    timings: EdgeTimings,
    capacity_slots: int,
    realized_delta: Optional[Sequence[int]] = None,
) -> AllocationProblem:
    """Build a Section 3.3 DP instance with liveness-corrected weights.

    Identical to :meth:`AllocationProblem.from_timings` except each item's
    space requirement is multiplied by its live-instance count, so the
    knapsack capacity bound matches steady-state peak occupancy.

    The live-instance count of an edge is ``R(i) - R(j) + 1`` -- the
    *realized* relative retiming, which path propagation can inflate well
    beyond the edge's own requirement ``delta_cache`` (the producer simply
    runs early and its data waits). Since realized retimings are only
    known after an allocation, callers typically run two passes: allocate,
    solve the retiming, then rebuild the problem passing the realized
    deltas, one per edge row of ``timings`` (``ParaConv(liveness_aware=
    True)`` does exactly this). Without ``realized_delta`` the per-edge
    requirement is used as a lower-bound estimate.
    """
    if capacity_slots < 0:
        raise RetimingError("capacity_slots must be >= 0")
    base = AllocationProblem.from_timings(timings, capacity_slots)
    row_of, slots, d_cache = timings.row_of, timings.slots, timings.delta_cache
    realized = d_cache if realized_delta is None else realized_delta
    items = []
    for item in base.items:
        row = row_of[item.key]
        live = live_instances(max(realized[row], d_cache[row]))
        items.append(
            AllocationItem(item.key, slots[row] * live, item.delta_r, item.deadline)
        )
    return AllocationProblem(items, capacity_slots, rows=base.rows)
