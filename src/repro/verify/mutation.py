"""Seeded schedule mutation / fault injection.

A validator that accepts everything proves nothing. This module takes a
*valid* compiled plan, applies targeted corruptions — each one seeded and
deterministic — and hands the mutants to :class:`ScheduleValidator`. Every
mutator is constructed to break at least one cataloged invariant, so a
validator that misses any mutant has a hole in its catalog; the
fault-detection score over the corpus must be 1.0.

The corpus deliberately spans every check family: kernel resource faults
(overlapping, stretched, dropped, swapped operations), retiming faults
(negative values, dropped edges, flattened producers), placement faults
(transfer inflation, placement flips), and allocation faults that any
allocator could emit (profit corruption, cache overfill, phantom cached
profit, and an honestly accounted result that overflows the cache).
"""

from __future__ import annotations

import copy
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.paraconv import ParaConvResult
from repro.core.schedule import PeriodicSchedule
from repro.graph.taskgraph import column_of
from repro.pim.memory import Placement

EdgeKey = Tuple[int, int]
Mutator = Callable[[ParaConvResult, random.Random], Optional[str]]


def clone_result(result: ParaConvResult) -> ParaConvResult:
    """Deep-enough copy of a plan: every mutable container is duplicated.

    Graph and config are shared (mutators never touch them); the schedule,
    its kernel, their columns and the allocation are copied so mutations
    cannot leak back into the pristine plan.
    """
    source = result.schedule
    kernel = copy.copy(source.kernel)
    kernel.pe = list(kernel.pe)
    kernel.start = list(kernel.start)
    kernel.finish = list(kernel.finish)
    schedule = PeriodicSchedule(
        source.graph,
        kernel,
        list(source.vertex_r),
        list(source.edge_r),
        list(source.edge_placement),
        list(source.edge_transfer),
    )
    allocation = copy.copy(result.allocation)
    index = result.graph.index()
    allocation.placements = index.by_row(
        list(column_of(result.allocation.placements, index.edge_keys))
    )
    allocation.cached = list(result.allocation.cached)
    return ParaConvResult(
        graph=result.graph,
        config=result.config,
        schedule=schedule,
        allocation=allocation,
        case_histogram=dict(result.case_histogram),
        group_width=result.group_width,
        num_groups=result.num_groups,
    )


# ----------------------------------------------------------------------
# mutators: each corrupts the (already cloned) result in place and
# returns a description, or None when not applicable to this plan. The
# kernel mutators write the kernel's columns.
# ----------------------------------------------------------------------
def _mutate_overlap_ops(result: ParaConvResult, rng: random.Random) -> Optional[str]:
    """Slide one op onto a colleague's window on the same PE."""
    kernel = result.schedule.kernel
    by_pe: Dict[int, List[int]] = {}
    for v, pe in enumerate(kernel.pe):
        by_pe.setdefault(pe, []).append(v)
    crowded = [rows for rows in by_pe.values() if len(rows) >= 2]
    if not crowded:
        return None
    rows = sorted(rng.choice(crowded), key=kernel.start.__getitem__)
    first, second = rows[0], rows[1]
    duration = kernel.finish[second] - kernel.start[second]
    kernel.start[second] = kernel.start[first]
    kernel.finish[second] = kernel.start[first] + duration
    return (
        f"moved op {kernel.op_ids[second]} onto op {kernel.op_ids[first]}'s "
        f"window on PE {kernel.pe[first]}"
    )


def _mutate_swap_dependent_ops(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Swap the start offsets of an intra-iteration producer/consumer pair."""
    schedule = result.schedule
    kernel = schedule.kernel
    index = result.graph.index()
    candidates = []
    for producer, consumer in zip(index.producers, index.consumers):
        if schedule.vertex_r[producer] != schedule.vertex_r[consumer]:
            continue  # dependency crosses iterations; swap may stay legal
        if kernel.finish[producer] <= kernel.start[consumer]:
            candidates.append((producer, consumer))
    if not candidates:
        return None
    p, c = candidates[rng.randrange(len(candidates))]
    starts, finishes = kernel.start, kernel.finish
    p_start, c_start = starts[p], starts[c]
    finishes[p] += c_start - p_start
    finishes[c] += p_start - c_start
    starts[p], starts[c] = c_start, p_start
    return (
        f"swapped start offsets of dependent ops {index.op_ids[p]} -> "
        f"{index.op_ids[c]}"
    )


def _mutate_stretch_op(result: ParaConvResult, rng: random.Random) -> Optional[str]:
    """Inflate one op's occupancy past its execution time."""
    kernel = result.schedule.kernel
    op_id = rng.choice(sorted(kernel.op_ids))
    kernel.finish[list(kernel.op_ids).index(op_id)] += 1
    return f"stretched op {op_id} by one unit"


def _mutate_drop_op(result: ParaConvResult, rng: random.Random) -> Optional[str]:
    """Remove one operation from the kernel entirely."""
    kernel = result.schedule.kernel
    op_id = rng.choice(sorted(kernel.op_ids))
    v = list(kernel.op_ids).index(op_id)
    kernel.op_ids = tuple(kernel.op_ids[:v]) + tuple(kernel.op_ids[v + 1:])
    for column in (kernel.pe, kernel.start, kernel.finish):
        del column[v]
    return f"dropped op {op_id} from the kernel"


def _mutate_drop_edge(result: ParaConvResult, rng: random.Random) -> Optional[str]:
    """Erase one intermediate result's retiming + placement records."""
    schedule = result.schedule
    if not schedule.edge_retiming:
        return None
    key = rng.choice(sorted(schedule.edge_retiming))
    del schedule.edge_retiming[key]
    schedule.placements.pop(key, None)
    schedule.transfer_times.pop(key, None)
    return f"dropped edge {key} from retiming/placement maps"


def _mutate_flatten_retiming(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Collapse a loaded producer's retiming onto its consumer's level."""
    schedule = result.schedule
    kernel = schedule.kernel
    loaded = [
        edge.key
        for edge in result.graph.edges()
        if schedule.retiming[edge.producer] > schedule.retiming[edge.consumer]
        and kernel.placement(edge.producer).finish
        + schedule.transfer_times[edge.key]
        > kernel.placement(edge.consumer).start
    ]
    if not loaded:
        return None
    producer, consumer = loaded[rng.randrange(len(loaded))]
    schedule.retiming[producer] = schedule.retiming[consumer]
    # keep R(i,j) inside the band so only the arrival check can object
    schedule.edge_retiming[(producer, consumer)] = schedule.retiming[consumer]
    return f"flattened retiming of producer {producer} to consumer {consumer}"


def _mutate_negative_retiming(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Push one operation's retiming below zero."""
    schedule = result.schedule
    op_id = rng.choice(sorted(schedule.retiming))
    schedule.retiming[op_id] = -1 - rng.randrange(3)
    return f"set retiming of op {op_id} to {schedule.retiming[op_id]}"


def _mutate_break_edge_band(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Push one R(i,j) far outside the legal [R(j), R(i)] band."""
    schedule = result.schedule
    if not schedule.edge_retiming:
        return None
    key = rng.choice(sorted(schedule.edge_retiming))
    schedule.edge_retiming[key] = 10_000
    return f"set R{key} = 10000, outside its legal band"


def _mutate_inflate_transfer(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Blow one transfer time past the period (breaks Theorem 3.1 premise)."""
    schedule = result.schedule
    if not schedule.transfer_times:
        return None
    key = rng.choice(sorted(schedule.transfer_times))
    schedule.transfer_times[key] = schedule.period + 1 + rng.randrange(3)
    return f"inflated transfer of {key} to {schedule.transfer_times[key]}"


def _mutate_flip_placement(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Flip a placement without updating its transfer time."""
    schedule = result.schedule
    candidates = [
        key
        for key, transfer in schedule.transfer_times.items()
        if key in schedule.placements
    ]
    # only edges whose two placements differ in transfer time can be caught
    from repro.core.retiming import analyze_edges

    try:
        timings = analyze_edges(result.graph, schedule.kernel, result.config)
    except Exception:
        return None
    candidates = [
        key
        for key in candidates
        if key in timings
        and timings[key].transfer_cache != timings[key].transfer_edram
    ]
    if not candidates:
        return None
    key = candidates[rng.randrange(len(candidates))]
    old = schedule.placements[key]
    new = Placement.EDRAM if old is Placement.CACHE else Placement.CACHE
    schedule.placements[key] = new
    result.allocation.placements[key] = new
    if new is Placement.CACHE:
        result.allocation.cached.append(key)
    else:
        result.allocation.cached = [
            cached for cached in result.allocation.cached if cached != key
        ]
    return f"flipped placement of {key} to {new.value} without retiming it"


def _mutate_overfill_cache(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Shrink the claimed capacity below what the allocation charges."""
    allocation = result.allocation
    if allocation.slots_used > 0:
        allocation.capacity_slots = allocation.slots_used - 1
        return (
            f"shrank capacity to {allocation.capacity_slots} slots below the "
            f"{allocation.slots_used} charged"
        )
    # nothing cached: fabricate a charge with no backing cached set
    allocation.slots_used = allocation.capacity_slots + 1
    return (
        f"charged {allocation.slots_used} slots against capacity "
        f"{allocation.capacity_slots} with nothing cached"
    )


def _mutate_corrupt_profit(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Misreport the achieved profit Sum DR(m)."""
    result.allocation.total_delta_r += 1 + rng.randrange(5)
    return (
        f"inflated total_delta_r to {result.allocation.total_delta_r}"
    )


def _mutate_search_overstate_profit(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Claim profit for a result that was never actually cached.

    Models an allocator whose bookkeeping says an intermediate result is
    cached (and banks its ``DR(m)``) while the emitted placements still
    send it to eDRAM. The cached list then disagrees with the CACHE
    placements and the profit accounting no longer sums over the cached
    set — both allocation-check violations.
    """
    allocation = result.allocation
    phantom = sorted(
        key
        for key, placement in allocation.placements.items()
        if placement is Placement.EDRAM
    )
    if not phantom:
        return None
    key = phantom[rng.randrange(len(phantom))]
    allocation.cached.append(key)
    allocation.total_delta_r += 1 + rng.randrange(5)
    return (
        f"claimed eDRAM-placed {key} as cached and banked phantom profit "
        f"(total_delta_r={allocation.total_delta_r})"
    )


def _mutate_search_overfill_candidate(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Emit an internally consistent allocation that overflows the cache.

    Models an allocator that ignores the capacity: extra results are
    flipped to CACHE *consistently* — placements, cached list, transfer
    times, profit and slot accounting all updated honestly — until the
    charged slots exceed the capacity. Every allocation-consistency check
    stays green by construction; only the cache-capacity invariant can
    catch it, so a miss here is a hole in that specific check.
    """
    from repro.core.retiming import analyze_edges

    schedule = result.schedule
    allocation = result.allocation
    try:
        timings = analyze_edges(result.graph, schedule.kernel, result.config)
    except Exception:
        return None
    flippable = sorted(
        key
        for key, placement in allocation.placements.items()
        if placement is Placement.EDRAM and key in timings
    )
    rng.shuffle(flippable)
    flipped = []
    for key in flippable:
        if allocation.slots_used > allocation.capacity_slots:
            break
        timing = timings[key]
        schedule.placements[key] = Placement.CACHE
        allocation.placements[key] = Placement.CACHE
        allocation.cached.append(key)
        if key in schedule.transfer_times:
            schedule.transfer_times[key] = timing.transfer_for(Placement.CACHE)
        allocation.slots_used += timing.slots
        allocation.total_delta_r += timing.delta_r
        flipped.append(key)
    if allocation.slots_used <= allocation.capacity_slots:
        return None  # even caching everything fits: no overflow to model
    return (
        f"flipped {len(flipped)} results to CACHE with honest accounting, "
        f"charging {allocation.slots_used} slots against capacity "
        f"{allocation.capacity_slots}"
    )


def _mutate_shrink_period(
    result: ParaConvResult, rng: random.Random
) -> Optional[str]:
    """Cut the kernel period below its makespan."""
    kernel = result.schedule.kernel
    if kernel.makespan() <= 0:
        return None
    kernel.period = kernel.makespan() - 1
    return f"shrank period to {kernel.period}, below the kernel makespan"


#: The full mutation corpus, name -> mutator.
MUTATORS: Dict[str, Mutator] = {
    "overlap-ops": _mutate_overlap_ops,
    "swap-dependent-ops": _mutate_swap_dependent_ops,
    "stretch-op": _mutate_stretch_op,
    "drop-op": _mutate_drop_op,
    "drop-edge": _mutate_drop_edge,
    "flatten-retiming": _mutate_flatten_retiming,
    "negative-retiming": _mutate_negative_retiming,
    "break-edge-band": _mutate_break_edge_band,
    "inflate-transfer": _mutate_inflate_transfer,
    "flip-placement": _mutate_flip_placement,
    "overfill-cache": _mutate_overfill_cache,
    "corrupt-profit": _mutate_corrupt_profit,
    "shrink-period": _mutate_shrink_period,
    "search-overstate-profit": _mutate_search_overstate_profit,
    "search-overfill-candidate": _mutate_search_overfill_candidate,
}


@dataclass
class InjectedFault:
    """One seeded corruption of a valid plan."""

    mutator: str
    description: str
    mutant: ParaConvResult


@dataclass
class FaultDetectionReport:
    """Validator performance over one injected-fault corpus."""

    injected: List[InjectedFault] = field(default_factory=list)
    detected: List[str] = field(default_factory=list)
    missed: List[str] = field(default_factory=list)
    skipped: List[str] = field(default_factory=list)

    @property
    def detection_rate(self) -> float:
        total = len(self.detected) + len(self.missed)
        return len(self.detected) / total if total else 1.0

    @property
    def ok(self) -> bool:
        return not self.missed

    def as_dict(self) -> Dict[str, object]:
        return {
            "injected": len(self.injected),
            "detected": list(self.detected),
            "missed": list(self.missed),
            "skipped": list(self.skipped),
            "detection_rate": self.detection_rate,
        }


def inject_faults(
    result: ParaConvResult,
    seed: int = 0,
    mutators: Optional[List[str]] = None,
) -> List[InjectedFault]:
    """Apply every (applicable) mutator to fresh clones of ``result``."""
    names = mutators if mutators is not None else sorted(MUTATORS)
    faults: List[InjectedFault] = []
    for index, name in enumerate(names):
        rng = random.Random((seed << 8) ^ index)
        mutant = clone_result(result)
        description = MUTATORS[name](mutant, rng)
        if description is None:
            continue
        faults.append(InjectedFault(name, description, mutant))
    return faults


def fault_detection_report(
    result: ParaConvResult,
    validator=None,
    seed: int = 0,
    mutators: Optional[List[str]] = None,
) -> FaultDetectionReport:
    """Inject the corpus and score the validator's detection rate.

    The pristine plan is validated first: a baseline that is itself
    rejected would make detection trivially meaningless, so it is a
    prerequisite failure (reported via ``missed`` as ``baseline``).
    """
    from repro.verify.validator import ScheduleValidator

    validator = validator or ScheduleValidator()
    report = FaultDetectionReport()
    baseline = validator.validate(result)
    if not baseline.ok:
        report.missed.append("baseline")
        return report
    names = mutators if mutators is not None else sorted(MUTATORS)
    applied = inject_faults(result, seed=seed, mutators=names)
    applied_names = {fault.mutator for fault in applied}
    report.skipped = [name for name in names if name not in applied_names]
    report.injected = applied
    for fault in applied:
        verdict = validator.validate(fault.mutant)
        if verdict.ok:
            report.missed.append(fault.mutator)
        else:
            report.detected.append(fault.mutator)
    return report
