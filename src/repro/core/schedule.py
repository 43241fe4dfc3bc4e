"""Schedule objects and semantic validation.

Two layers of schedule exist in Para-CONV:

* a :class:`KernelSchedule` -- the steady-state loop kernel: one placement
  ``(pe, start, finish)`` per operation inside one iteration of length
  ``period`` (the paper's ``p``),
* a :class:`PeriodicSchedule` -- the kernel plus the retiming function, the
  per-edge placements and the prologue, i.e. everything needed to execute
  ``N`` iterations and to report the paper's metrics.

Both are tables in the graph's content-only index space
(:meth:`~repro.graph.taskgraph.TaskGraph.index`): the kernel holds
``pe``/``start``/``finish`` columns by vertex, the periodic schedule
``R(i)`` by vertex and ``R(i, j)``, placement and ``c_ij`` by edge row.
Every compile pass reads and writes these lists; dict-like views keyed
by op id or edge key serve the callers that look one entry up at a time.

:func:`validate_kernel` checks a kernel's resources and
:func:`validate_periodic_schedule` is the ground-truth semantic check: it
verifies, for every unrolled dependency, that the producer instance's data
(including its placement-dependent transfer time) arrives before the
consumer instance starts. All correctness tests lean on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import add, le, lt, sub
from typing import Dict, List, Optional, Sequence, Tuple

from repro.graph.taskgraph import ColumnView, GraphIndex, TaskGraph
from repro.pim.memory import Placement


class ScheduleError(ValueError):
    """Raised when a schedule violates resource or dependency semantics."""


@dataclass(frozen=True)
class PlacedOp:
    """One operation's placement inside the kernel window (a view of one
    kernel row; :func:`validate_kernel` checks it).

    ``start``/``finish`` are offsets within the iteration, ``0 <= start <
    finish <= period``; the paper's absolute times follow as
    ``s_i^l = start + (l - 1) p``.
    """

    op_id: int
    pe: int
    start: int
    finish: int

    @property
    def duration(self) -> int:
        return self.finish - self.start


@dataclass
class KernelSchedule:
    """Steady-state schedule of one iteration on the PE array.

    Columns by vertex: op ``op_ids[v]`` runs on PE ``pe[v]`` over
    ``[start[v], finish[v])``. A compiled kernel lays them out over its
    graph's index, ``op_ids`` being ``graph.index().op_ids``.
    """

    period: int
    op_ids: Sequence[int] = ()
    pe: List[int] = field(default_factory=list)
    start: List[int] = field(default_factory=list)
    finish: List[int] = field(default_factory=list)
    #: ``(op_ids, {op_id: vertex})``, built by the first :meth:`placement`.
    _position: Optional[Tuple[Sequence[int], Dict[int, int]]] = field(
        default=None, init=False, repr=False, compare=False
    )

    def placement(self, op_id: int) -> PlacedOp:
        """The placement of ``op_id``, as a :class:`PlacedOp` view."""
        if self._position is None or self._position[0] is not self.op_ids:
            self._position = (
                self.op_ids, {op: v for v, op in enumerate(self.op_ids)}
            )
        v = self._position[1].get(op_id)
        if v is None:
            raise ScheduleError(f"op {op_id} missing from kernel")
        return PlacedOp(op_id, self.pe[v], self.start[v], self.finish[v])

    def makespan(self) -> int:
        return max(self.finish, default=0)

    def pes_used(self) -> int:
        return len(set(self.pe))

    def utilization(self, num_pes: int) -> float:
        """Busy fraction of the PE array over one period."""
        if self.period <= 0 or num_pes <= 0:
            return 0.0
        busy = sum(self.finish) - sum(self.start)
        return busy / (self.period * num_pes)


def require_layout(kernel: KernelSchedule, index: GraphIndex) -> None:
    """Raise :class:`ScheduleError` unless ``kernel``'s columns are laid
    out over ``index`` (naming the first op of the index it lacks)."""
    op_ids = kernel.op_ids
    if op_ids is not index.op_ids and tuple(op_ids) != index.op_ids:
        placed = set(op_ids)
        missing = [op_id for op_id in index.op_ids if op_id not in placed]
        extra = sorted(placed - index.position.keys())
        raise ScheduleError(
            (f"op {missing[0]} missing from kernel; " if missing else "")
            + f"kernel op mismatch: missing={sorted(missing)[:5]}, "
            f"extra={extra[:5]} (or not in the graph's topological order)"
        )
    if {len(kernel.pe), len(kernel.start), len(kernel.finish)} != {len(op_ids)}:
        raise ScheduleError(f"kernel columns must hold {len(op_ids)} entries")


def check_windows(kernel: KernelSchedule) -> None:
    """Raise :class:`ScheduleError` unless every kernel row is a
    non-empty window starting at or after 0 on a non-negative PE (the
    checks that need neither the graph nor the array's width)."""
    pes, starts, finishes = kernel.pe, kernel.start, kernel.finish
    if pes and (
        min(starts) < 0 or min(pes) < 0 or not all(map(lt, starts, finishes))
    ):
        for op_id, pe, start, finish in zip(kernel.op_ids, pes, starts, finishes):
            if start < 0 or finish <= start:
                raise ScheduleError(
                    f"op {op_id}: invalid window [{start}, {finish})"
                )
            if pe < 0:
                raise ScheduleError(f"op {op_id}: negative PE {pe}")


def validate_kernel(
    graph: TaskGraph,
    kernel: KernelSchedule,
    num_pes: int,
    duration_of=None,
) -> None:
    """Check kernel resource feasibility (not dependencies).

    * every operation is placed exactly once, in the graph's index order,
    * every placement is a non-empty window inside ``[0, period]`` on a
      PE in ``[0, num_pes)``,
    * every placement occupies exactly its expected duration --
      ``c_i`` by default, or ``duration_of(op_id, pe)`` on machines where
      occupancy depends on the placement (heterogeneous arrays),
    * no two operations overlap on the same PE.

    Each check runs over whole columns; a per-op loop names the first
    offender only when one fails.
    """
    index = graph.index()
    require_layout(kernel, index)
    check_windows(kernel)
    op_ids, pes = kernel.op_ids, kernel.pe
    starts, finishes, period = kernel.start, kernel.finish, kernel.period
    in_range = not pes or max(pes) < num_pes
    expected = (
        index.execution_times if duration_of is None or not in_range
        else tuple(map(duration_of, op_ids, pes))
    )
    durations = tuple(map(sub, finishes, starts))
    if not in_range or max(finishes, default=0) > period or (
        durations != expected
    ):
        for v, op_id in enumerate(op_ids):
            pe, start, finish = pes[v], starts[v], finishes[v]
            if pe >= num_pes:
                raise ScheduleError(
                    f"op {op_id} on PE {pe} but only {num_pes} PEs exist"
                )
            if finish > period:
                raise ScheduleError(
                    f"op {op_id} finishes at {finish} past period {period}"
                )
            duration = (
                expected[v] if duration_of is None else duration_of(op_id, pe)
            )
            if finish - start != duration:
                raise ScheduleError(
                    f"op {op_id} occupies {finish - start} units, "
                    f"execution time is {duration}"
                )
    # PE k's windows lie in [k * span, k * span + period] on one line that
    # holds every PE's windows; two overlap iff two neighbours do.
    span = period + 1
    lo = [pe * span + start for pe, start in zip(pes, starts)]
    order = sorted(range(len(lo)), key=lo.__getitem__)
    line_lo = list(map(lo.__getitem__, order))
    line_hi = list(map(add, line_lo, map(durations.__getitem__, order)))
    if not all(map(le, line_hi, line_lo[1:])):
        k = next(k for k, pair in enumerate(zip(line_hi, line_lo[1:]))
                 if pair[0] > pair[1])
        left, right = order[k], order[k + 1]
        raise ScheduleError(
            f"PE {pes[left]}: ops {op_ids[left]} and {op_ids[right]} overlap "
            f"([{starts[left]},{finishes[left]}) vs "
            f"[{starts[right]},{finishes[right]}))"
        )


@dataclass
class PeriodicSchedule:
    """A complete retimed periodic schedule (kernel + retiming + placement).

    Columns in the graph's index space (:meth:`TaskGraph.index`):

    Attributes:
        kernel: steady-state placements with period ``p``.
        vertex_r: vertex retiming ``R(i)`` by vertex.
        edge_r: intermediate-result retiming ``R(i, j)`` by edge row.
        edge_placement: cache/eDRAM placement by edge row.
        edge_transfer: effective ``c_{i,j}`` under that placement, by row.

    :attr:`retiming`, :attr:`edge_retiming`, :attr:`placements` and
    :attr:`transfer_times` are the same columns keyed by op id or edge
    key (write-through views, :class:`~repro.graph.taskgraph.ColumnView`).
    """

    graph: TaskGraph
    kernel: KernelSchedule
    vertex_r: List[int]
    edge_r: List[int]
    edge_placement: List[Placement]
    edge_transfer: List[int]

    @property
    def retiming(self) -> ColumnView:
        return self.graph.index().by_vertex(self.vertex_r)

    @property
    def edge_retiming(self) -> ColumnView:
        return self.graph.index().by_row(self.edge_r)

    @property
    def placements(self) -> ColumnView:
        return self.graph.index().by_row(self.edge_placement)

    @property
    def transfer_times(self) -> ColumnView:
        return self.graph.index().by_row(self.edge_transfer)

    @property
    def period(self) -> int:
        return self.kernel.period

    @property
    def max_retiming(self) -> int:
        """``R_max = max_i R(T_i)`` -- prologue length in iterations."""
        return max(self.vertex_r, default=0)

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

    Raises :class:`ScheduleError` on the first violation. Reads the
    schedule's columns, in the graph's index order.
    """
    index = schedule.graph.index()
    period = schedule.period
    if period <= 0:
        raise ScheduleError("period must be positive")
    retiming = schedule.vertex_r
    if len(retiming) != len(index.op_ids):
        raise ScheduleError(
            f"retiming must hold {len(index.op_ids)} entries, one per op"
        )
    if None in retiming or min(retiming, default=0) < 0:
        for op_id, r in zip(index.op_ids, retiming):
            if r is None:
                raise ScheduleError(f"no retiming value for op {op_id}")
            if r < 0:
                raise ScheduleError(f"negative retiming for op {op_id}")
    columns = (schedule.edge_placement, schedule.edge_transfer, schedule.edge_r)
    if {len(column) for column in columns} != {len(index.edge_keys)}:
        raise ScheduleError(
            "placements, transfer times and edge retimings must hold "
            f"{len(index.edge_keys)} entries each, one per intermediate result"
        )
    kernel = schedule.kernel
    require_layout(kernel, index)
    starts, finishes = kernel.start, kernel.finish
    for key, producer, consumer, r_ij, placement, c_ij in zip(
        index.edge_keys,
        index.producers,
        index.consumers,
        schedule.edge_r,
        schedule.edge_placement,
        schedule.edge_transfer,
    ):
        if placement is None:
            raise ScheduleError(f"no placement for intermediate result {key}")
        if c_ij is None:
            raise ScheduleError(f"no transfer time for intermediate result {key}")
        r_i = retiming[producer]
        r_j = retiming[consumer]
        if r_i < r_j:
            raise ScheduleError(
                f"edge {key}: R(i)={r_i} < R(j)={r_j} breaks the dependency"
            )
        if check_legality:
            if r_ij is None:
                raise ScheduleError(f"edge {key}: missing R(i,j)")
            if not r_i >= r_ij >= r_j:
                raise ScheduleError(
                    f"edge {key}: illegal retiming R(i)={r_i} >= "
                    f"R(i,j)={r_ij} >= R(j)={r_j} violated"
                )
        if c_ij > period:
            raise ScheduleError(
                f"edge {key}: transfer time {c_ij} exceeds period {period} "
                "(Theorem 3.1 requires c_ij <= p)"
            )
        arrival = finishes[producer] + c_ij
        start = starts[consumer]
        # Theorem 3.1 bounds the *required* relative retiming of each pair
        # at 2; the realized R(i) - R(j) may exceed it when other paths
        # push R(i) higher (the data simply waits longer, still legal).
        if arrival - start > 2 * period:
            required = -(-(arrival - start) // period)
            raise ScheduleError(
                f"edge {key}: required relative retiming {required} exceeds "
                "the Theorem 3.1 bound of 2"
            )
        delta = r_i - r_j
        if arrival > delta * period + start:
            raise ScheduleError(
                f"edge {key}: data arrives at offset {arrival} but consumer "
                f"starts at {delta * period + start} (delta={delta}, "
                f"p={period})"
            )
