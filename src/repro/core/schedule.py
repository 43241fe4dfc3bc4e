"""Schedule objects and semantic validation.

Two layers of schedule exist in Para-CONV:

* a :class:`KernelSchedule` -- the steady-state loop kernel: one placement
  ``(pe, start, finish)`` per operation inside one iteration of length
  ``period`` (the paper's ``p``),
* a :class:`PeriodicSchedule` -- the kernel plus the retiming function, the
  per-edge placements and the prologue, i.e. everything needed to execute
  ``N`` iterations and to report the paper's metrics.

:func:`validate_periodic_schedule` is the ground-truth semantic check: it
verifies, for every unrolled dependency, that the producer instance's data
(including its placement-dependent transfer time) arrives before the
consumer instance starts. All correctness tests lean on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Tuple

from repro.graph.taskgraph import TaskGraph
from repro.pim.memory import Placement


class ScheduleError(ValueError):
    """Raised when a schedule violates resource or dependency semantics."""


@dataclass(frozen=True)
class PlacedOp:
    """One operation's placement inside the kernel window.

    ``start``/``finish`` are offsets within the iteration, ``0 <= start <
    finish <= period``; the paper's absolute times follow as
    ``s_i^l = start + (l - 1) p``.
    """

    op_id: int
    pe: int
    start: int
    finish: int

    def __post_init__(self) -> None:
        if self.start < 0 or self.finish <= self.start:
            raise ScheduleError(
                f"op {self.op_id}: invalid window [{self.start}, {self.finish})"
            )
        if self.pe < 0:
            raise ScheduleError(f"op {self.op_id}: negative PE {self.pe}")

    @property
    def duration(self) -> int:
        return self.finish - self.start


@dataclass
class KernelSchedule:
    """Steady-state schedule of one iteration on the PE array."""

    period: int
    placements: Dict[int, PlacedOp] = field(default_factory=dict)

    def placement(self, op_id: int) -> PlacedOp:
        try:
            return self.placements[op_id]
        except KeyError:
            raise ScheduleError(f"op {op_id} missing from kernel") from None

    def start(self, op_id: int) -> int:
        """``s_i`` -- start offset of ``V_i`` within the iteration."""
        return self.placement(op_id).start

    def finish(self, op_id: int) -> int:
        """``f_i`` -- finish offset of ``V_i`` within the iteration."""
        return self.placement(op_id).finish

    def pe_of(self, op_id: int) -> int:
        return self.placement(op_id).pe

    def makespan(self) -> int:
        return max((p.finish for p in self.placements.values()), default=0)

    def pes_used(self) -> int:
        return len({p.pe for p in self.placements.values()})

    def utilization(self, num_pes: int) -> float:
        """Busy fraction of the PE array over one period."""
        if self.period <= 0 or num_pes <= 0:
            return 0.0
        busy = sum(p.duration for p in self.placements.values())
        return busy / (self.period * num_pes)


def validate_kernel(
    graph: TaskGraph,
    kernel: KernelSchedule,
    num_pes: int,
    duration_of=None,
) -> None:
    """Check kernel resource feasibility (not dependencies).

    * every operation is placed exactly once,
    * every placement fits in ``[0, period]`` on a valid PE,
    * every placement occupies exactly its expected duration --
      ``c_i`` by default, or ``duration_of(op_id, pe)`` on machines where
      occupancy depends on the placement (heterogeneous arrays),
    * no two operations overlap on the same PE.
    """
    execution_times = {op.op_id: op.execution_time for op in graph}
    placed = kernel.placements
    if placed.keys() != execution_times.keys():
        missing = sorted(execution_times.keys() - placed.keys())
        extra = sorted(placed.keys() - execution_times.keys())
        raise ScheduleError(
            f"kernel op mismatch: missing={missing[:5]}, extra={extra[:5]}"
        )
    period = kernel.period
    per_pe: Dict[int, List[PlacedOp]] = {}
    for placement in placed.values():
        if placement.pe >= num_pes:
            raise ScheduleError(
                f"op {placement.op_id} on PE {placement.pe} but only "
                f"{num_pes} PEs exist"
            )
        if placement.finish > period:
            raise ScheduleError(
                f"op {placement.op_id} finishes at {placement.finish} past "
                f"period {period}"
            )
        if duration_of is not None:
            expected = duration_of(placement.op_id, placement.pe)
        else:
            expected = execution_times[placement.op_id]
        if placement.finish - placement.start != expected:
            raise ScheduleError(
                f"op {placement.op_id} occupies {placement.duration} units, "
                f"execution time is {expected}"
            )
        per_pe.setdefault(placement.pe, []).append(placement)
    for pe, placements in per_pe.items():
        placements.sort(key=lambda p: p.start)
        for left, right in zip(placements, placements[1:]):
            if right.start < left.finish:
                raise ScheduleError(
                    f"PE {pe}: ops {left.op_id} and {right.op_id} overlap "
                    f"([{left.start},{left.finish}) vs "
                    f"[{right.start},{right.finish}))"
                )


@dataclass
class PeriodicSchedule:
    """A complete retimed periodic schedule (kernel + retiming + placement).

    Attributes:
        kernel: steady-state placements with period ``p``.
        retiming: vertex retiming ``R(i)`` per operation.
        edge_retiming: intermediate-result retiming ``R(i, j)`` per edge.
        placements: cache/eDRAM placement per intermediate result.
        transfer_times: effective ``c_{i,j}`` per edge under its placement.
    """

    graph: TaskGraph
    kernel: KernelSchedule
    retiming: Dict[int, int]
    edge_retiming: Dict[Tuple[int, int], int]
    placements: Dict[Tuple[int, int], Placement]
    transfer_times: Dict[Tuple[int, int], int]

    @property
    def period(self) -> int:
        return self.kernel.period

    @property
    def max_retiming(self) -> int:
        """``R_max = max_i R(T_i)`` -- prologue length in iterations."""
        return max(self.retiming.values(), default=0)

    @property
    def prologue_time(self) -> int:
        """``R_max * p`` (paper Section 3.2)."""
        return self.max_retiming * self.period

    def relative_retiming(self, producer: int, consumer: int) -> int:
        """``delta(i, j) = R(i) - R(j)`` -- iterations the data crosses."""
        return self.retiming[producer] - self.retiming[consumer]

    def total_time(self, iterations: int) -> int:
        """Prologue plus ``N`` steady-state iterations."""
        if iterations < 1:
            raise ScheduleError("iterations must be >= 1")
        return self.prologue_time + iterations * self.period

    def cached_edges(self) -> List[Tuple[int, int]]:
        """Keys of intermediate results allocated to the on-chip cache."""
        return [k for k, v in self.placements.items() if v is Placement.CACHE]

    def cache_slots_used(self, slots_required: Mapping[Tuple[int, int], int]) -> int:
        return sum(slots_required[k] for k in self.cached_edges())

    def prologue_rounds(self) -> List[List[int]]:
        """Operations executing in each prologue round (1..R_max).

        Round ``k`` runs the operations whose retiming reaches back that
        far: ``{i : R(i) >= R_max - k + 1}``. Earlier rounds are sparser;
        by round ``R_max + 1`` the full kernel repeats (steady state).
        """
        r_max = self.max_retiming
        rounds: List[List[int]] = []
        for k in range(1, r_max + 1):
            threshold = r_max - k + 1
            rounds.append(
                sorted(i for i, r in self.retiming.items() if r >= threshold)
            )
        return rounds


def validate_periodic_schedule(
    schedule: PeriodicSchedule, check_legality: bool = True
) -> None:
    """Semantic validation of a retimed periodic schedule.

    Checks, for every edge ``(i, j)``:

    1. *legality* (Definition 3.1): ``R(i) >= R(i,j) >= R(j)`` and all
       retimings non-negative;
    2. *Theorem 3.1 bound*: relative retiming ``R(i) - R(j) <= 2`` beyond
       what zero transfer would need -- concretely ``delta <= 2``;
    3. *data arrival*: with relative retiming ``delta = R(i) - R(j)``, the
       producer instance finishes and its data (transfer time ``c_ij``)
       arrives no later than the consumer instance starts::

           finish(i) + c_ij <= delta * p + start(j)

    Raises :class:`ScheduleError` on the first violation.
    """
    graph = schedule.graph
    period = schedule.period
    if period <= 0:
        raise ScheduleError("period must be positive")
    retiming = schedule.retiming
    for op in graph:
        op_id = op.op_id
        if op_id not in retiming:
            raise ScheduleError(f"no retiming value for op {op_id}")
        if retiming[op_id] < 0:
            raise ScheduleError(f"negative retiming for op {op_id}")
    placed = schedule.kernel.placements
    placements = schedule.placements
    transfer_times = schedule.transfer_times
    edge_retiming = schedule.edge_retiming
    for key in graph.edge_keys():
        if key not in placements:
            raise ScheduleError(f"no placement for intermediate result {key}")
        if key not in transfer_times:
            raise ScheduleError(f"no transfer time for intermediate result {key}")
        producer, consumer = key
        r_i = retiming[producer]
        r_j = retiming[consumer]
        delta = r_i - r_j
        if delta < 0:
            raise ScheduleError(
                f"edge {key}: R(i)={r_i} < R(j)={r_j} breaks the dependency"
            )
        if check_legality:
            r_ij = edge_retiming.get(key)
            if r_ij is None:
                raise ScheduleError(f"edge {key}: missing R(i,j)")
            if not r_i >= r_ij >= r_j:
                raise ScheduleError(
                    f"edge {key}: illegal retiming R(i)={r_i} >= "
                    f"R(i,j)={r_ij} >= R(j)={r_j} violated"
                )
        c_ij = transfer_times[key]
        if c_ij > period:
            raise ScheduleError(
                f"edge {key}: transfer time {c_ij} exceeds period {period} "
                "(Theorem 3.1 requires c_ij <= p)"
            )
        try:
            arrival = placed[producer].finish + c_ij
            start = placed[consumer].start
        except KeyError as exc:
            raise ScheduleError(
                f"op {exc.args[0]} missing from kernel"
            ) from None
        # Theorem 3.1 bounds the *required* relative retiming of each pair
        # at 2; the realized R(i) - R(j) may exceed it when other paths
        # push R(i) higher (the data simply waits longer, still legal).
        required = max(0, -(-(arrival - start) // period))
        if required > 2:
            raise ScheduleError(
                f"edge {key}: required relative retiming {required} exceeds "
                "the Theorem 3.1 bound of 2"
            )
        available = delta * period + start
        if arrival > available:
            raise ScheduleError(
                f"edge {key}: data arrives at offset {arrival} but consumer "
                f"starts at {available} (delta={delta}, p={period})"
            )
