"""Execute a Para-CONV periodic schedule on the machine model.

The executor simulates the operation instances of ``N`` logical
iterations plus the prologue, respecting the retimed dependency structure:
instance ``l`` of operation ``i`` runs in round ``l + R_max - R(i)`` at its
kernel offset, and the intermediate result of edge ``(i, j)`` flows from
producer instance ``l`` to consumer instance ``l`` -- ``R(i) - R(j)``
rounds apart in wall-clock time.

Unlike the analytic model, the executor charges *real* resource usage:

* eDRAM-resident results queue on their vault and occupy crossbar ports
  for the write and the prefetch read;
* cache-resident results occupy cache slots from production to
  consumption; if the static allocation transiently overflows (an edge
  with relative retiming > 0 keeps several instances alive), the overflow
  instance spills to eDRAM and is counted;
* PEs execute one instance at a time at their static placement.

Instances start no earlier than their nominal time ``(round-1)*p + s_i``;
any *lateness* beyond it means an analytic-model premise did not hold on
the simulated machine (typically vault contention). The validation
experiment asserts the observed lateness stays small.

The machine state is columnar:

* the machine is a set of **timeline arrays** -- per-PE busy clocks,
  per-vault service clocks, crossbar port clocks -- advanced in place;
* all static facts are **precomputed rows** (:class:`_StaticTables`),
  built once per plan and machine, in one pass over the ops and one over
  the edges, from the schedule, the
  compiler's edge prices (:func:`repro.core.retiming.graph_prices`, kept
  with the graph's index: slots, transfer units, home vault, vault
  service time), one per ``rid`` (arrival: its consumer; start: PE,
  execution time, ALU cost, in-edge rids, cache-placed in-edge rids;
  produce: per out-edge placement, slots, transfer latencies, home vault,
  vault service time, consumer, its PE and its start-key constant), so
  the hot loop does list indexing only;
* events are **packed integers** (:class:`_EventKeys`): ``key = (((time
  << 2) | priority) << (IB + RB)) | (iteration << RB) | rid``. ``rid``
  is a static row rank fixed when the tables are built -- arrivals
  ranked by ``(consumer, e0, e1)``, then starts and productions each
  ranked by op id -- and indexes the row of static facts the handler
  needs. ``RB`` is the bit length of ``max(E + 2V, max_op_id + 1)`` and
  ``IB`` that of ``iterations + 1`` for the ``N`` the tables were built
  for, so no field can overflow into the next and integer order *is* the
  order of the tuple ``(time, priority, iteration, op, e0, e1)``. The
  rows hold key constants, so they depend on ``N`` only through ``IB``:
  an executor keeps the tables of its last plan and reuses them for every
  ``N'`` with ``N' + 1 < 2**IB``, and builds them again, at the wider
  layout, for a larger ``N'``. That content key is unique per event, so no
  sequence number is needed to break ties: same-time ordering is a
  function of event identity alone, which is what lets the fast-forward
  splice shift every in-flight key with one add;
* the global ``heapq`` holds **starts and productions only**. A
  transfer's arrival time is fixed when its producer finishes, so the
  production settles it on the consumer's record at once (and the last
  in-edge pushes the start); the arrival's key waits on a small
  **pending heap per consumer PE** until it is staged in that PE's
  pFIFO, in key order (:meth:`_ScheduleRun._run_until`);
* per-instance bookkeeping is **one record per operation instance**,
  ``[in-edges not issued, latest staged arrival, nominal start, latest
  of the nominal start and the arrivals issued due after their round]``,
  keyed by the integer ``(iteration << RB) | op_id``; live cache slots
  are keyed by ``(iteration << RB) | edge_rid``;
* **pFIFO entries are edge rids**: staging an arrival appends its edge's
  arrival rid (an int) to the consumer PE's pFIFO, and a start removes
  the oldest entry of each of its in-edge rids, so a full 16-deep pFIFO
  is scanned with int compares. Only the canonical form and
  :meth:`_ScheduleRun.fifo_entries` decode a rid to its edge's
  ``((e0, e1), size_bytes)``. The canonical form shows the state as if
  each arrival were an event on the global heap: a pending arrival is a
  queued arrive event, and a start still waiting for one is not queued.

Both passes walk the graph in content order -- ops by id, edges by
``(producer, consumer)`` key -- never in insertion order, so a simulation
depends on the graph's content only: two graphs with the same
:meth:`~repro.graph.taskgraph.TaskGraph.fingerprint` give the same trace,
which is what lets the runtime key plans and batch traces by fingerprint.

Two simulation modes (:class:`~repro.sim.modes.SimMode`):

* ``FULL_UNROLL`` -- the oracle. Every instance is simulated event by
  event. Iterations are still *materialized lazily* (one round ahead of
  the frontier), so dependency bookkeeping stays ``O(V * R_max)`` even
  though the event count is ``O(V * N)``.
* ``STEADY_STATE`` -- the paper's periodicity, exploited. The engine
  simulates round by round; at each round boundary past the prologue it
  takes the canonical form of the machine state (every clock relative to
  the boundary time, every iteration label relative to the boundary
  round). When two boundaries a candidate period apart match, the
  simulation is provably periodic: the remaining full rounds are
  fast-forwarded in O(1) by replaying the converged per-round stats
  delta and splicing every clock forward, then only the epilogue (the
  final ``R_max`` partial rounds) is simulated. Aggregate statistics are
  *identical* to the full unroll -- ``repro.verify.differential_sim``
  asserts it across the benchmark suite, and
  ``tests/golden/sim_signatures.json`` pins both modes' verdicts.

A steady run given a store (``states=``, a :class:`RunStates`) starts
from the latest state the store holds for its ``N`` and exports its own
**round states** into it: until its detector finds a first period
candidate, its state at every ``_PREFIX_EVERY``-th round boundary up to
``_PREFIX_LAST`` and at round ``N`` (prefix states), and its state at the
round it converges (a :class:`SteadyBoundary`). Instance ``l`` of an op
runs in round ``l + R_max - R(i)`` and reads only earlier instances (the
paper's Sec. 3.2), and iteration ``r`` is materialized at round ``r``
only when ``r <= N``, so the state at round ``r`` -- the detector's
counter window included -- is the same for every ``N >= r``. A run of
``N'`` that the boundary covers loads it and splices forward as a fresh
run would; any other loads the latest prefix state at or below ``N'``.
Either way it simulates only the rounds after the state it loaded.

Record retention is delegated to a pluggable
:class:`~repro.sim.sinks.TraceSink`, so trace memory is bounded
regardless of ``N``.

Fault injection: the executor optionally consumes a
:class:`~repro.pim.faults.FaultModel`. Failure masks activate at
iteration (round) boundaries; the moment a scheduled operation attempts
to start on a dead PE, or a transfer touches a dead vault (including the
prefetch of an intermediate result whose eDRAM home vault died), the run
aborts with a typed :class:`PeFaultError` carrying the machine-state
round, the simulated time and the failed unit. The steady-state engine
treats every fault boundary as a convergence barrier: fingerprints taken
before it are invalidated and the O(1) fast-forward never splices across
it, so a timed fault can never be skipped by the acceleration.
"""

from __future__ import annotations

import hashlib
import marshal
from bisect import bisect_right
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.core.paraconv import ParaConvResult
from repro.core.retiming import graph_prices
from repro.core.schedule import require_layout
from repro.pim.config import PFIFO_DEPTH, PimConfig
from repro.pim.energy import EnergyModel, EnergyReport
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.pim.memory import Placement
from repro.pim.stats import TrafficStats
from repro.sim.engine import SimulationError
from repro.sim.modes import SimMode
from repro.sim.sinks import FastForwardNotice, InMemorySink, NullSink, TraceSink
from repro.sim.trace import InstanceRecord, TransferKind, TransferRecord

__all__ = [
    "ExecutionTrace",
    "PeFaultError",
    "RunStates",
    "ScheduleExecutor",
    "SimMode",
    "SteadyBoundary",
]

#: Event priorities: arrivals before starts before productions at a tie.
_PRIO_ARRIVE = 0
_PRIO_START = 1
_PRIO_PRODUCE = 2

#: heap priority -> event kind name. Redundant with the priority, but part
#: of the canonical form, so ``steady_fingerprint`` digests (pinned in
#: ``tests/golden/sim_signatures.json``) depend on it.
_KIND_OF_PRIO = {
    _PRIO_ARRIVE: "arrive", _PRIO_START: "start", _PRIO_PRODUCE: "produce",
}

#: bits of the priority field of an event key.
_PRIO_BITS = 2


class _EventKeys:
    """Field layout of a packed event key, sized for the ``N`` it is built for.

    ``key = (((time << 2) | prio) << shift) | (iteration << rid_bits) |
    rid`` with ``shift = iteration_bits + rid_bits``. Time is the top
    field, so it is unbounded; every lower field is checked to fit its
    width, here and by :meth:`check` for each run that reuses the layout,
    so integer order equals ``(time, prio, iteration, rid)`` tuple order
    for every key a run can build. The checks raise
    :class:`SimulationError`, so ``python -O`` keeps them.
    """

    __slots__ = (
        "rid_bits", "iteration_bits", "shift", "time_shift", "rid_mask",
        "iteration_mask",
    )

    def __init__(self, num_rids: int, max_op_id: int, iterations: int):
        self.rid_bits = max(num_rids, max_op_id + 1).bit_length()
        self.iteration_bits = (iterations + 1).bit_length()
        self.shift = self.iteration_bits + self.rid_bits
        self.time_shift = self.shift + _PRIO_BITS
        self.rid_mask = (1 << self.rid_bits) - 1
        #: the iteration field in place (``key & iteration_mask`` keeps
        #: ``iteration << rid_bits``).
        self.iteration_mask = ((1 << self.iteration_bits) - 1) << self.rid_bits
        if num_rids - 1 > self.rid_mask or max_op_id > self.rid_mask:
            raise SimulationError(
                f"{num_rids} rids or op id {max_op_id} overflow a "
                f"{self.rid_bits}-bit rid field"
            )
        if max(_KIND_OF_PRIO) >= 1 << _PRIO_BITS:
            raise SimulationError(
                f"event priorities overflow a {_PRIO_BITS}-bit field"
            )
        self.check(iterations)

    def serves(self, iterations: int) -> bool:
        """True when every iteration label of a run of ``iterations``
        fits the iteration field."""
        return iterations + 1 < 1 << self.iteration_bits

    def check(self, iterations: int) -> None:
        """Raise :class:`SimulationError` unless :meth:`serves`."""
        if not self.serves(iterations):
            raise SimulationError(
                f"N={iterations} overflows a {self.iteration_bits}-bit "
                f"iteration field (it holds N <= "
                f"{(1 << self.iteration_bits) - 2})"
            )

    def const(self, prio: int, rid: int) -> int:
        """The priority and rid fields of a key, ready to OR in."""
        return (prio << self.shift) | rid

    def pack(self, time: int, prio: int, iteration: int, rid: int) -> int:
        return (
            (time << self.time_shift) | (iteration << self.rid_bits)
            | self.const(prio, rid)
        )

    def unpack(self, key: int) -> Tuple[int, int, int, int]:
        """``(time, prio, iteration, rid)`` of a packed key."""
        return (
            key >> self.time_shift,
            (key >> self.shift) & ((1 << _PRIO_BITS) - 1),
            (key & self.iteration_mask) >> self.rid_bits,
            key & self.rid_mask,
        )


class PeFaultError(SimulationError):
    """A scheduled operation or transfer hit a dead unit.

    Raised by the executor when the active fault mask covers a PE that an
    operation instance is about to start on, or a vault that a transfer
    (an intermediate result's eDRAM round-trip) must touch. Despite the
    name — the common case, and the one the paper's PE-array model makes
    interesting — it covers both unit kinds; ``unit`` disambiguates.

    Attributes:
        unit: ``"pe"`` or ``"vault"``.
        unit_id: logical id of the dead unit in the simulated machine.
        round: machine-state round (iteration boundary count) in which
            the dead unit was hit.
        time: simulated time units at the moment of impact.
        fault_iteration: iteration boundary at which the unit died
            (0 for units dead before the run started).
    """

    def __init__(
        self,
        unit: str,
        unit_id: int,
        round: int,
        time: int,
        fault_iteration: int,
    ):
        self.unit = unit
        self.unit_id = unit_id
        self.round = round
        self.time = time
        self.fault_iteration = fault_iteration
        super().__init__(
            f"{unit} {unit_id} is dead (failed at iteration boundary "
            f"{fault_iteration}); scheduled work hit it in round {round} "
            f"at t={time}"
        )


@dataclass
class ExecutionTrace:
    """Everything measured while executing a schedule.

    Per-record data (``records``/``transfers``) lives in the pluggable
    ``sink`` and may be sampled or dropped; the aggregate counters below
    are maintained incrementally and are *exact* in every mode -- they
    are what the steady-state fast-forward replays and what the
    differential check compares against the full unroll.
    """

    config: PimConfig
    iterations: int
    analytic_makespan: int
    realized_makespan: int
    sink: TraceSink = field(default_factory=InMemorySink)
    stats: TrafficStats = field(default_factory=TrafficStats)
    cache_peak_slots: int = 0
    cache_spills: int = 0
    events_processed: int = 0
    # --- exact aggregates (sink-independent) ---------------------------
    num_instances: int = 0
    num_transfers: int = 0
    busy_units: int = 0
    lateness_total: int = 0
    lateness_max: int = 0
    pes_used: Set[int] = field(default_factory=set)
    # --- steady-state observability ------------------------------------
    sim_mode: SimMode = SimMode.FULL_UNROLL
    #: round boundary at which the machine fingerprint converged.
    converged_round: Optional[int] = None
    #: detected steady-state period, in rounds (1 = the paper's exact
    #: round-to-round repetition; >1 = a longer limit cycle).
    converged_period: Optional[int] = None
    #: rounds actually simulated event by event.
    rounds_simulated: int = 0
    #: converged rounds replayed analytically (0 in full-unroll mode).
    rounds_fast_forwarded: int = 0
    #: digest of the machine state right after the last splice, in the
    #: canonical form taken against the converged round
    #: (``converged_round``); None before convergence. Without a splice it
    #: is the converged state's digest. After one, the state has moved
    #: ``rounds_fast_forwarded`` rounds past that reference, so the digest
    #: depends on ``N`` (``tests/golden/sim_signatures.json`` pins it).
    steady_fingerprint: Optional[str] = None
    #: the store of round states a later batch can start from: the one
    #: the run was given, with the states it exported added; None when
    #: the run was given none.
    states: Optional["RunStates"] = field(
        default=None, repr=False, compare=False
    )

    @property
    def records(self) -> List[InstanceRecord]:
        """Instance records the sink retained (all of them by default)."""
        return self.sink.instances()

    @property
    def transfers(self) -> List[TransferRecord]:
        """Transfer records the sink retained (all of them by default)."""
        return self.sink.transfers()

    @property
    def max_lateness(self) -> int:
        return self.lateness_max

    @property
    def total_lateness(self) -> int:
        return self.lateness_total

    @property
    def slowdown(self) -> float:
        """Realized over analytic makespan (1.0 = model exact)."""
        if self.analytic_makespan == 0:
            return 1.0
        return self.realized_makespan / self.analytic_makespan

    def pe_utilization(self) -> float:
        """Aggregate busy fraction over the realized makespan."""
        if self.realized_makespan == 0:
            return 0.0
        width = len(self.pes_used) or 1
        return self.busy_units / (self.realized_makespan * width)

    def energy(self, model: Optional[EnergyModel] = None) -> EnergyReport:
        return (model or EnergyModel()).estimate(self.stats, self.config)

    def aggregate_signature(self) -> Dict[str, object]:
        """The exact aggregates, as one comparable mapping.

        Two traces of the same schedule are equivalent -- regardless of
        sim mode or sink -- iff their signatures match. This is the
        object the ``differential_simulate`` verification check compares.
        """
        return {
            "iterations": self.iterations,
            "analytic_makespan": self.analytic_makespan,
            "realized_makespan": self.realized_makespan,
            "stats": self.stats.as_dict(),
            "cache_peak_slots": self.cache_peak_slots,
            "cache_spills": self.cache_spills,
            "events_processed": self.events_processed,
            "num_instances": self.num_instances,
            "num_transfers": self.num_transfers,
            "busy_units": self.busy_units,
            "lateness_total": self.lateness_total,
            "lateness_max": self.lateness_max,
            "pes_used": tuple(sorted(self.pes_used)),
            "energy_total_pj": self.energy().total_pj,
        }


def candidate_period(
    boundary_round: int,
    snapshots: Dict[int, "_BoundarySnapshot"],
    max_period: int,
    r_max: int,
) -> Optional[int]:
    """Smallest ``q`` whose counter deltas look ``q``-periodic.

    Cheap necessary condition: the per-round counter increments over the
    last ``q`` rounds must equal the increments over the ``q`` rounds
    before. Only then is the exact (expensive) canonical-form
    confirmation attempted.
    """
    r = boundary_round
    for q in range(1, max_period + 1):
        if r - 2 * q < r_max + 1:
            break  # comparison window would reach into the prologue
        if all(
            (r - i in snapshots and r - i - q in snapshots
             and r - i - 1 in snapshots and r - i - q - 1 in snapshots
             and snapshots[r - i].delta(snapshots[r - i - 1])
             == snapshots[r - i - q].delta(snapshots[r - i - q - 1]))
            for i in range(q)
        ):
            return q
    return None


@dataclass(frozen=True)
class _BoundarySnapshot:
    """Monotone counters at a round boundary (for per-round deltas)."""

    trace_stats: Tuple[int, ...]
    memory_stats: Tuple[int, ...]
    cache_spills: int
    num_instances: int
    num_transfers: int
    busy_units: int
    lateness_total: int
    events_processed: int

    def delta(self, earlier: "_BoundarySnapshot") -> tuple:
        """Counter increments since ``earlier``, as one comparable tuple.

        Equal deltas across a candidate period are a cheap *necessary*
        condition for periodicity; the engine uses them to decide when
        computing the (much more expensive) exact canonical form is
        worth it.
        """
        return (
            tuple(a - b for a, b in zip(self.trace_stats, earlier.trace_stats)),
            tuple(a - b for a, b in zip(self.memory_stats, earlier.memory_stats)),
            self.cache_spills - earlier.cache_spills,
            self.num_instances - earlier.num_instances,
            self.num_transfers - earlier.num_transfers,
            self.busy_units - earlier.busy_units,
            self.lateness_total - earlier.lateness_total,
            self.events_processed - earlier.events_processed,
        )


@dataclass(frozen=True)
class _Tail:
    """What a resumed run adds after its splice, for one ``(N - b) mod q``.

    The rounds after the splice start from the boundary's state shifted by
    whole periods, so what they add does not depend on how many periods
    were skipped: the counter increments from ``start`` to ``end``, the
    maxima, and the latest finish relative to the splice boundary's time.
    """

    start: _BoundarySnapshot
    end: _BoundarySnapshot
    lateness_max: int
    cache_peak_slots: int
    pes_used: FrozenSet[int]
    finish: int


#: a run exports a prefix state at every ``_PREFIX_EVERY``-th round
#: boundary up to round ``_PREFIX_LAST``, and at round ``N``.
_PREFIX_EVERY = 4
_PREFIX_LAST = 64


@dataclass(frozen=True, eq=False, repr=False)
class _RoundState:
    """A steady run's machine and detector state at a round boundary; it
    serves every ``N >= round`` (a converged one, through its
    :class:`SteadyBoundary`, every ``N`` the boundary covers).

    It is loaded at the round it was taken, so clocks, times and labels
    are absolute, and the timelines, pFIFOs, live cache slots, instance
    records, heap and pending arrivals are one :mod:`marshal` blob of the
    run's own containers (about 30 bytes an instance record; dumped and
    loaded in C, and loading yields the fresh containers a run mutates).
    Instance records and live cache slots are keyed by ``(iteration <<
    RB) | id``, which does not depend on ``IB``; the heap and pending
    arrival keys are in ``keys``' layout, repacked on load when the
    loading run's layout differs.
    """

    round: int
    keys: _EventKeys
    #: the detector's ``steady_max_period``: it sizes the counter window.
    max_period: int
    #: ``(round, counters)`` of the detector's counter window, oldest
    #: first; the last entry holds the counters at ``round``.
    window: Tuple[Tuple[int, _BoundarySnapshot], ...]
    lateness_max: int
    cache_peak_slots: int
    pes_used: FrozenSet[int]
    max_finish: int
    failed_pes: FrozenSet[int]
    failed_vaults: FrozenSet[int]
    cache_used: int
    #: ``(pe_free, fifos, vault_free, xin, xout, cache_live, inst, heap,
    #: pending)``, marshalled.
    machine: bytes


@dataclass(frozen=True, eq=False)
class SteadyBoundary:
    """A converged steady run's state at its converged round.

    The paper's kernel repeats every period, so once a run's state at round
    ``round`` equals its state ``period`` rounds earlier, its state at any
    later boundary ``round + k * period`` is this one shifted by ``k``
    periods. A run of any ``N >= min_iterations`` given the store that
    holds it loads ``state``, splices forward exactly as a fresh run's
    fast-forward does and simulates only the remainder and the epilogue;
    ``tails`` memoizes those per ``(N - round) mod period``.
    """

    state: _RoundState
    period: int
    #: smallest ``N`` whose fresh run arms every confirmation this run
    #: armed, with ``round`` in range: it converges at the same round.
    min_iterations: int
    #: counters at ``round - period``.
    previous: _BoundarySnapshot
    tails: Dict[int, _Tail] = field(default_factory=dict)

    @property
    def round(self) -> int:
        return self.state.round

    def covers(self, iterations: int) -> bool:
        """True when a batch of ``iterations`` can resume from here."""
        return iterations >= self.min_iterations


@dataclass(frozen=True, eq=False)
class RunStates:
    """The round states one plan's steady runs share.

    Hand it to :meth:`ScheduleExecutor.execute` (``states=``): the run
    starts from the boundary when it covers the run's ``N``, else from
    the latest prefix state at or below ``N``, and returns, on
    ``trace.states``, a new store with the states it exported added. It
    never changes in place, so a run that fails adds nothing. It keeps
    the static tables of the last run that extended it, which the next
    run reuses when its ``N`` fits their key layout.
    """

    #: prefix states, sorted by round, one per round; all exported
    #: before their run's first period candidate.
    prefixes: Tuple[_RoundState, ...] = ()
    #: the first converged state a run of the store exported.
    boundary: Optional[SteadyBoundary] = None
    tables: Optional["_StaticTables"] = None

    def __repr__(self) -> str:
        converged = None if self.boundary is None else self.boundary.round
        return f"RunStates(rounds={self.rounds}, boundary={converged})"

    @property
    def rounds(self) -> Tuple[int, ...]:
        """The rounds of the prefix states."""
        return tuple(state.round for state in self.prefixes)

    def latest(self, iterations: int) -> Optional[_RoundState]:
        """The prefix state a run of ``iterations`` starts from, if any:
        the latest one at or below round ``iterations``."""
        index = bisect_right(self.rounds, iterations)
        return self.prefixes[index - 1] if index else None

    def extended(
        self,
        states: List[_RoundState],
        tables: "_StaticTables",
        boundary: Optional[SteadyBoundary] = None,
    ) -> "RunStates":
        """These prefix states and ``states``, with ``tables``, and
        ``boundary`` if the store has none; a new state replaces an old
        one of its round. Of the rounds off the ``_PREFIX_EVERY`` grid (a
        run's own ``N``, or past ``_PREFIX_LAST``) only the latest is
        kept, so a plan holds at most ``_PREFIX_LAST // _PREFIX_EVERY +
        1`` prefix states whatever sizes its batches have."""
        boundary = self.boundary or boundary
        if not states and tables is self.tables and boundary is self.boundary:
            return self
        by_round = {state.round: state for state in self.prefixes}
        by_round.update((state.round, state) for state in states)
        last = max(by_round, default=0)
        return RunStates(tuple(
            by_round[r] for r in sorted(by_round)
            if r == last or (r % _PREFIX_EVERY == 0 and r <= _PREFIX_LAST)
        ), boundary, tables)


class ScheduleExecutor:
    """Discrete-event executor for :class:`ParaConvResult` schedules.

    Args:
        config: machine description, vault count included.
        mode: :class:`SimMode` -- ``FULL_UNROLL`` (oracle, default) or
            ``STEADY_STATE`` (fingerprint convergence + O(1)
            fast-forward). Aggregates are identical either way.
        sink: where per-record trace data goes; defaults to a fresh
            unbounded :class:`~repro.sim.sinks.InMemorySink` per run.
        steady_max_period: longest limit cycle (in rounds) the
            steady-state detector looks for. 1 checks only the paper's
            exact round-to-round repetition; larger values also catch
            oscillations introduced by transient cache spills.
        steady_confirm_budget: how many failed exact confirmations the
            detector tolerates before it stops looking, bounding the
            fingerprint overhead on runs that never settle.
        fault_model: optional :class:`~repro.pim.faults.FaultModel`
            applied to every run (overridable per ``execute`` call). When
            a scheduled op lands on a dead PE or a transfer touches a
            dead vault, the run raises :class:`PeFaultError`; the
            steady-state fast-forward never splices across a fault
            boundary, and convergence fingerprints taken before one are
            invalidated.
        round_probe: optional callable ``(boundary_round,
            _BoundarySnapshot) -> None`` invoked after every simulated
            round boundary (the per-round counter stream the golden
            fixture digests).

    The executor keeps the static tables of the last plan it ran
    (:class:`_StaticTables`, keyed by the plan object): every later run of
    that plan whose ``N`` fits their key layout reuses them.
    """

    def __init__(
        self,
        config: PimConfig,
        mode: SimMode = SimMode.FULL_UNROLL,
        sink: Optional[TraceSink] = None,
        steady_max_period: int = 8,
        steady_confirm_budget: int = 8,
        fault_model: Optional[FaultModel] = None,
        round_probe=None,
    ):
        if steady_max_period < 1:
            raise SimulationError("steady_max_period must be >= 1")
        if steady_confirm_budget < 1:
            raise SimulationError("steady_confirm_budget must be >= 1")
        self.config = config
        self.mode = SimMode.from_name(mode)
        self._sink = sink
        self.steady_max_period = steady_max_period
        self.steady_confirm_budget = steady_confirm_budget
        self.fault_model = fault_model
        self.round_probe = round_probe
        #: ``(plan, tables)`` of the last plan run.
        self._memo: Optional[Tuple[ParaConvResult, _StaticTables]] = None

    def _tables(
        self,
        result: ParaConvResult,
        iterations: int,
        shared: Optional["_StaticTables"] = None,
    ) -> "_StaticTables":
        """The static tables of ``result`` for a run of ``iterations``:
        ``shared`` (the ones a store of round states carries) or the kept
        ones when they fit, else new ones at ``iterations``' layout. The
        executor keeps what it returns."""
        memo = self._memo
        if shared is not None and shared.keys.serves(iterations):
            tables = shared
        elif memo is not None and memo[0] is result and memo[1].keys.serves(
            iterations
        ):
            return memo[1]
        else:
            tables = _StaticTables(self.config, result, iterations)
        self._memo = (result, tables)
        return tables

    def execute(
        self,
        result: ParaConvResult,
        iterations: int = 20,
        sink: Optional[TraceSink] = None,
        fault_model: Optional[FaultModel] = None,
        states: Optional[RunStates] = None,
    ) -> ExecutionTrace:
        """Run ``iterations`` logical iterations of one PE group.

        With ``states`` (steady-state mode and a
        :class:`~repro.sim.sinks.NullSink` only), the run starts from the
        store's boundary when it covers ``iterations``, else from the
        latest of its prefix states at or below round ``iterations``,
        exports its own, and returns the extended store on
        ``trace.states``. The store must come from runs of ``result`` on
        this machine under the same fault model (the serving runtime keys
        it so). The trace equals a fresh run's on every field but
        ``rounds_simulated``, which counts the rounds this call simulated:
        none when the boundary holds them already for this ``N``'s
        remainder.
        """
        if iterations < 1:
            raise SimulationError("iterations must be >= 1")
        run_sink = sink if sink is not None else (
            self._sink if self._sink is not None else InMemorySink()
        )
        if states is not None and (
            self.mode is not SimMode.STEADY_STATE
            or not isinstance(run_sink, NullSink)
        ):
            raise SimulationError(
                "round states serve steady-state runs that keep no "
                "records (sink=NullSink())"
            )
        run = _ScheduleRun(
            self.config, result, iterations,
            self.mode, run_sink,
            max_period=self.steady_max_period,
            confirm_budget=self.steady_confirm_budget,
            fault_model=(
                fault_model if fault_model is not None else self.fault_model
            ),
            round_probe=self.round_probe,
            tables=self._tables(
                result, iterations, None if states is None else states.tables
            ),
            states=states,
        )
        return run.execute()


class _StaticTables:
    """The static rows and key layout of one plan on one machine.

    Built in one pass over the ops and one over the edges. They depend on
    the plan, the machine and the key layout only, and on ``N`` only
    through the iteration field's width: built for one ``N``, they serve
    every run whose labels fit ``keys`` (:meth:`_EventKeys.serves`).
    """

    __slots__ = (
        "keys", "first_produce", "rid_fields", "rows", "op_order", "in_deg",
        "start_const", "static_off",
    )

    def __init__(
        self, config: PimConfig, result: ParaConvResult, iterations: int
    ):
        schedule = result.schedule
        graph = result.graph
        kernel = schedule.kernel
        period = schedule.period
        r_max = schedule.max_retiming

        # ---- event-key layout and row ranks ---------------------------
        # One rid space: arrivals ranked by (consumer, e0, e1), then the
        # starts, then the productions, each ranked by op id -- within one
        # (time, prio, iteration) the rid order is the old tuple order.
        ops = sorted(graph.operations(), key=lambda op: op.op_id)
        size = ops[-1].op_id + 1 if ops else 0
        edges = graph.edges()
        n_edges = len(edges)
        n_ops = len(ops)
        keys = self.keys = _EventKeys(n_edges + 2 * n_ops, size - 1, iterations)
        arrive_rid = {
            edge.key: rid
            for rid, edge in enumerate(
                sorted(edges, key=lambda e: (e.consumer, e.producer))
            )
        }
        #: rids below it are arrivals and starts, from it productions.
        self.first_produce = n_edges + n_ops
        #: rid -> ``(op_id, (e0, e1), size)`` of its events, for decoding.
        rid_fields: List[tuple] = [None] * (n_edges + 2 * n_ops)
        rows: List[tuple] = [None] * (n_edges + 2 * n_ops)

        # ---- static per-op tables (index = op_id) ---------------------
        self.op_order: List[int] = [op.op_id for op in ops]
        in_deg = [0] * size
        #: start_const[op] = the prio and rid fields of op's start key.
        start_const = [0] * size
        static_off = [0] * size
        for rank, op in enumerate(ops):
            start_const[op.op_id] = keys.const(_PRIO_START, n_edges + rank)
        # The kernel and retiming columns, by vertex of the graph's index.
        index = graph.index()
        require_layout(kernel, index)
        pe_of: Dict[int, int] = dict(zip(index.op_ids, kernel.pe))
        for op_id, start, retiming in zip(
            index.op_ids, kernel.start, schedule.vertex_r
        ):
            # nominal(op, it) = (it - 1) * p + static_off[op].
            static_off[op_id] = (r_max - retiming) * period + start
        self.in_deg = in_deg
        self.start_const = start_const
        self.static_off = static_off

        # ---- static rows, indexed by rid ------------------------------
        # One pass over the edges in (producer, consumer) key order, never
        # insertion order: per consumer that is the pFIFO consume order,
        # per producer the out-edge order, so two graphs with the same
        # fingerprint simulate identically. Slots, transfer units, home
        # vaults and vault service times are the compiler's edge prices.
        placements = schedule.edge_placement
        row_of = index.row_of
        in_rids: Dict[int, List[int]] = {op.op_id: [] for op in ops}
        cache_in: Dict[int, List[int]] = {op.op_id: [] for op in ops}
        out_recs: Dict[int, List[tuple]] = {op.op_id: [] for op in ops}
        # Prices sort by their leading field, the (unique) edge key.
        for price in sorted(graph_prices(graph, config)):
            key = price.key
            consumer = price.consumer
            size_bytes = graph.edge(*key).size_bytes
            #: the edge's arrival rid, also its pFIFO entry: an arrival
            #: stages it and a start removes it.
            rid = arrive_rid[key]
            consumer_pe = pe_of[consumer]
            is_cache = placements[row_of[key]] is Placement.CACHE
            in_deg[consumer] += 1
            in_rids[consumer].append(rid)
            if is_cache:
                cache_in[consumer].append(rid)
            #: arrival row: the consumer, whose instance record a pending
            #: arrival updates when it is staged.
            rows[rid] = consumer
            rid_fields[rid] = (consumer, key, size_bytes)
            #: out-edge record of the producer's produce row: (arrive_const,
            #:   (e0, e1), size, is_cache, slots, cache_units, edram_units,
            #:   service, vault, consumer_pe, consumer, consumer's
            #:   start_const). The arrival priority is 0, so arrive_const
            #:   is also the edge's rid.
            out_recs[price.producer].append((
                keys.const(_PRIO_ARRIVE, rid),
                key,
                size_bytes,
                is_cache,
                price.slots,
                price.cache_units,
                price.edram_units,
                price.service_units,
                price.vault,
                consumer_pe,
                consumer,
                start_const[consumer],
            ))
        for rank, op in enumerate(ops):
            op_id = op.op_id
            start = n_edges + rank
            produce = start + n_ops
            #: start row: (op_id, pe, exec_time, alu_cost, in-edge rids,
            #:   cache-placed in-edge rids, produce_const).
            rows[start] = (
                op_id,
                pe_of[op_id],
                op.execution_time,
                max(op.work, op.execution_time),
                tuple(in_rids[op_id]),
                tuple(cache_in[op_id]),
                keys.const(_PRIO_PRODUCE, produce),
            )
            #: produce row: the op's out-edge records.
            rows[produce] = tuple(out_recs[op_id])
            rid_fields[start] = (op_id, (-1, -1), 0)
            rid_fields[produce] = (op_id, (-1, -1), 0)
        self.rid_fields = rid_fields
        self.rows = rows


class _ScheduleRun:
    """One executor invocation: timelines + loop over static tables.

    ``tables`` are the plan's :class:`_StaticTables`, shared by the runs
    whose ``N`` fits their layout; without them the run builds its own at
    its ``N``'s layout. With ``states``, :meth:`execute` starts from the
    latest state the store holds for ``N`` and exports the run's own.
    """

    def __init__(
        self,
        config: PimConfig,
        result: ParaConvResult,
        iterations: int,
        mode: SimMode,
        sink: TraceSink,
        max_period: int = 8,
        confirm_budget: int = 8,
        fault_model: Optional[FaultModel] = None,
        round_probe=None,
        tables: Optional[_StaticTables] = None,
        states: Optional[RunStates] = None,
    ):
        self.iterations = iterations
        self.mode = mode
        #: trivial fault models are normalized away so the fault-free hot
        #: path stays branch-cheap.
        self.fault_model = (
            fault_model
            if fault_model is not None and not fault_model.is_trivial
            else None
        )
        self._failed_pes: frozenset = frozenset()
        self._failed_vaults: frozenset = frozenset()
        self._current_round = 0
        self.max_period = max_period
        self.confirm_budget = confirm_budget
        self._round_probe = round_probe

        schedule = result.schedule
        self.period = schedule.period
        self.r_max = schedule.max_retiming
        width = result.group_width
        self.graph = result.graph
        if tables is None:
            tables = _StaticTables(config, result, iterations)
        else:
            tables.keys.check(iterations)
        self._tables = tables
        self._keys = tables.keys
        self._first_produce = tables.first_produce
        self._rid_fields = tables.rid_fields
        self._rows = tables.rows
        self._op_order = tables.op_order
        self._in_deg = tables.in_deg
        self._start_const = tables.start_const
        self._static_off = tables.static_off
        self._states = states
        #: prefix states this run exported; None when given no store.
        self._exported: Optional[List[_RoundState]] = (
            None if states is None else []
        )
        #: the boundary the run resumed from or exported: the rounds after
        #: the run's splice are its tail for this ``N``'s remainder.
        self._boundary: Optional[SteadyBoundary] = None

        # ---- timeline arrays + dynamic state --------------------------
        self._pe_free: List[int] = [0] * width
        #: per PE: the edge rids staged in its pFIFO, oldest first.
        self._fifo: List[List[int]] = [[] for _ in range(width)]
        #: per PE: a heap of the arrival keys bound for it that are issued
        #: but not staged yet.
        self._pending: List[List[int]] = [[] for _ in range(width)]
        self._vault_free: List[int] = [0] * config.num_vaults
        self._xin: List[int] = [0] * width
        self._xout: List[int] = [0] * config.num_vaults
        # Per-group cache share, as the allocator assumed.
        self._cache_cap = max(config.total_cache_slots // result.num_groups, 0)
        self._cache_used = 0
        #: (iteration << RB) | edge_rid -> cache slots held.
        self._cache_live: Dict[int, int] = {}
        #: (iteration << RB) | op_id -> [in-edges not issued yet, latest
        #: staged arrival (0 before the first), nominal start, the latest
        #: of the nominal start and the arrivals issued due after the end
        #: of their ``_run_until`` call]; the start goes at the later of
        #: the last two fields. Dropped when the instance starts.
        self._inst: Dict[int, List[int]] = {}
        self._heap: List[int] = []
        self._now = 0
        self._processed = 0
        self._events_skipped = 0
        self._mem_stats = TrafficStats()
        self._next_iteration = 1
        self._max_finish = 0
        self._converged = False

        self.trace = ExecutionTrace(
            config=config,
            iterations=iterations,
            analytic_makespan=self.r_max * self.period
            + iterations * self.period,
            realized_makespan=0,
            sink=sink,
            sim_mode=mode,
        )
        #: records are skipped entirely for a NullSink -- the aggregates
        #: on the trace are exact either way.
        self._emit = not isinstance(sink, NullSink)

    # ------------------------------------------------------------------
    # event handlers (tuple-dispatched; no tags, no closures)
    # ------------------------------------------------------------------
    def _materialize(self, iteration: int) -> None:
        """Create the dependency bookkeeping for one logical iteration.

        Every instance gets its record; source instances are scheduled at
        their nominal starts, dependent ones wait until every in-edge
        delivered.
        """
        offs = self._static_off
        base = (iteration - 1) * self.period
        heap = self._heap
        inst = self._inst
        in_deg = self._in_deg
        start_const = self._start_const
        time_shift = self._keys.time_shift
        ibits = iteration << self._keys.rid_bits
        for op_id in self._op_order:
            nominal = offs[op_id] + base
            degree = in_deg[op_id]
            inst[ibits | op_id] = [degree, 0, nominal, nominal]
            if degree == 0:
                heappush(
                    heap, (nominal << time_shift) | ibits | start_const[op_id]
                )

    def _run_until(self, until: int) -> None:
        """Dispatch every event due at or before ``until``.

        One fused loop pops the two kinds the global heap holds, starts
        and productions, told apart by the rid range of the popped key.
        Arrivals are not events: a production computes each transfer's
        arrival time and settles it on the consumer's record at once. The
        last in-edge pushes the consumer's start, at the key the arrival
        that completed it used to push. Only the pFIFO staging waits for
        the arrival time, on the consumer PE's pending heap, and each PE
        stages in key order, as the global heap would have popped its
        arrivals:

        * a start first stages its PE's pending keys below its own;
        * a transfer that lands the moment it is produced is staged at
          once, after its PE's pending keys below the popped key (the
          heap would have popped it right after the production);
        * the call ends by staging every pending key due by ``until``.

        Events are counted (``events_processed``) and pFIFO pushes made
        when an arrival is staged, so the counters and the pFIFOs read
        the same at the end of a call as when each arrival was an event.
        So does a record's latest staged arrival: it is raised at issue
        for an arrival due in this call and, for one due later, at the
        start of the call that stages it. :meth:`_canonical` rebuilds the
        rest of that view from the pending heaps.

        Static rows, timelines and dicts are bound to locals once per
        call and every exact counter accumulates in a local; the
        ``finally`` writes the counters back on every exit -- a normal
        return or a :class:`PeFaultError` -- so ``round_probe``,
        :meth:`_snapshot`, :meth:`_canonical` and the fault's round/time
        see the same state as if each event had updated it in place. A
        push keeps the popped key's iteration bits and ORs in the new
        time and the row's prio/rid constant.
        """
        heap = self._heap
        trace = self.trace
        stats = trace.stats
        mem = self._mem_stats
        # ---- static rows and key layout ----------------------------------
        rows = self._rows
        first_produce = self._first_produce
        keys = self._keys
        time_shift = keys.time_shift
        rid_bits = keys.rid_bits
        rid_mask = keys.rid_mask
        iteration_mask = keys.iteration_mask
        limit = (until + 1) << time_shift
        cache_cap = self._cache_cap
        failed_pes = self._failed_pes
        failed_vaults = self._failed_vaults
        # ---- timelines and dynamic dicts (mutated in place) --------------
        fifos = self._fifo
        pending = self._pending
        pe_free = self._pe_free
        vault_free = self._vault_free
        xin = self._xin
        xout = self._xout
        cache_live = self._cache_live
        inst = self._inst
        pes_used_add = trace.pes_used.add
        emit = self._emit
        record_instance = trace.sink.record_instance
        record_transfer = trace.sink.record_transfer
        fifo_depth = PFIFO_DEPTH
        stage = self._stage
        # ---- exact counters (written back in the finally) ----------------
        now = self._now
        processed = self._processed
        cache_used = self._cache_used
        max_finish = self._max_finish
        num_instances = trace.num_instances
        busy_units = trace.busy_units
        lateness_total = trace.lateness_total
        lateness_max = trace.lateness_max
        num_transfers = trace.num_transfers
        cache_spills = trace.cache_spills
        cache_peak = trace.cache_peak_slots
        fifo_pushes = stats.fifo_pushes
        alu_ops = stats.alu_ops
        cache_accesses = mem.cache_accesses
        cache_bytes = mem.cache_bytes
        edram_accesses = mem.edram_accesses
        edram_bytes = mem.edram_bytes
        # Arrivals issued by earlier calls and due in this one are staged
        # by its end: they count as staged on their consumer's record.
        for waiting in pending:
            for due in waiting:
                if due < limit:
                    rec = inst[(due & iteration_mask) | rows[due & rid_mask]]
                    arrival = due >> time_shift
                    if arrival > rec[1]:
                        rec[1] = arrival
        try:
            while heap and heap[0] < limit:
                key = heappop(heap)
                processed += 1
                now = key >> time_shift
                ibits = key & iteration_mask
                rid = key & rid_mask
                if rid < first_produce:  # start
                    (op_id, pe_id, duration, alu_cost, in_rids, cache_in,
                     produce_const) = rows[rid]
                    if pe_id in failed_pes:
                        # The schedule placed this instance on a PE that is
                        # dead under the active fault mask: abort before
                        # mutating machine state.
                        self._raise_fault(FAULT_UNIT_PE, pe_id, now)
                    # Stage the arrivals due before this start, in key
                    # order (occupancy stats; a full FIFO degrades to a
                    # direct cache/eDRAM read): ``_stage``, inlined on the
                    # hottest of its three call sites.
                    fifo = fifos[pe_id]
                    waiting = pending[pe_id]
                    room = fifo_depth - len(fifo)
                    while waiting and waiting[0] < key:
                        processed += 1
                        if room:
                            fifo.append(heappop(waiting) & rid_mask)
                            fifo_pushes += 1
                            room -= 1
                        else:
                            heappop(waiting)
                    # Consume the pFIFO entries staged for this instance --
                    # the oldest per in-edge rid (list.remove takes the
                    # first match), so a neighbour instance's datum is
                    # never stolen.
                    for arrive in in_rids:
                        if arrive in fifo:
                            fifo.remove(arrive)
                    start = pe_free[pe_id]
                    if now > start:
                        start = now
                    finish = start + duration
                    pe_free[pe_id] = finish
                    nominal_start = inst.pop(ibits | op_id)[2]
                    if emit:
                        record_instance(InstanceRecord(
                            op_id=op_id, iteration=ibits >> rid_bits,
                            pe=pe_id, nominal_start=nominal_start,
                            start=start, finish=finish,
                        ))
                    num_instances += 1
                    busy_units += duration
                    lateness = start - nominal_start
                    lateness_total += lateness
                    if lateness > lateness_max:
                        lateness_max = lateness
                    pes_used_add(pe_id)
                    alu_ops += alu_cost
                    if finish > max_finish:
                        max_finish = finish
                    # consume: free the cache slots of the cache-placed
                    # in-edges (a spilled one holds none).
                    for arrive in cache_in:
                        slots = cache_live.pop(ibits | arrive, None)
                        if slots is not None:
                            cache_used -= slots
                    heappush(heap, (finish << time_shift) | ibits | produce_const)
                    continue
                # produce: issue every out-edge's transfer.
                for (arrive, edge_key, size, is_cache, slots, cache_units,
                     edram_units, service, vault, consumer_pe, consumer,
                     start_const) in rows[rid]:
                    if is_cache and cache_used + slots <= cache_cap:
                        cache_used += slots
                        cache_live[ibits | arrive] = slots
                        if cache_used > cache_peak:
                            cache_peak = cache_used
                        cache_accesses += 1
                        cache_bytes += size
                        arrival = now + cache_units
                        if emit:
                            record_transfer(TransferRecord(
                                edge_key, ibits >> rid_bits,
                                TransferKind.CACHE, size, now, arrival,
                            ))
                    else:
                        if is_cache:
                            cache_spills += 1  # transient overflow: spill
                        if vault in failed_vaults:
                            # The intermediate result's home vault is
                            # dead: its eDRAM copy is gone, so neither the
                            # write-through nor the prefetch can complete.
                            self._raise_fault(FAULT_UNIT_VAULT, vault, now)
                        # eDRAM round-trip. The producer writes through to
                        # its vault while still executing, so the visible
                        # cost is the consumer-side fetch issued at
                        # production time: the crossbar holds both ports
                        # for the bandwidth share of the transfer, the
                        # vault queues and services the access, then the
                        # remaining wire latency rides on top -- exactly
                        # the analytic ``edram_transfer_units`` when the
                        # vault is idle.
                        issued = now
                        if xin[consumer_pe] > issued:
                            issued = xin[consumer_pe]
                        if xout[vault] > issued:
                            issued = xout[vault]
                        port_finish = issued + cache_units  # bandwidth share
                        xin[consumer_pe] = port_finish
                        xout[vault] = port_finish
                        read_start = issued
                        if vault_free[vault] > read_start:
                            read_start = vault_free[vault]
                        serviced = read_start + service
                        vault_free[vault] = serviced
                        extra = edram_units - service
                        arrival = serviced + (extra if extra > 0 else 0)
                        edram_accesses += 1
                        edram_bytes += size
                        if emit:
                            record_transfer(TransferRecord(
                                edge_key, ibits >> rid_bits,
                                TransferKind.EDRAM, size, now, arrival,
                            ))
                    num_transfers += 1
                    # Settle the arrival on the consumer's record now: an
                    # arrival due in this call is staged by its end, one
                    # due later is folded in by the call that stages it.
                    # The last in-edge pushes the start at the latest
                    # arrival or the nominal start, whichever is later.
                    rec = inst[ibits | consumer]
                    due = (arrival << time_shift) | ibits | arrive
                    if due < limit:
                        if arrival > rec[1]:
                            rec[1] = arrival
                    elif arrival > rec[3]:
                        rec[3] = arrival
                    remaining = rec[0] - 1
                    rec[0] = remaining
                    if not remaining:
                        start_at = rec[3]
                        if rec[1] > start_at:
                            start_at = rec[1]
                        heappush(
                            heap, (start_at << time_shift) | ibits | start_const
                        )
                    if arrival > now:
                        heappush(pending[consumer_pe], due)
                        continue
                    # Lands at once: the heap would have popped it right
                    # after this production, so it follows every pending
                    # arrival keyed below the production.
                    waiting = pending[consumer_pe]
                    if waiting and waiting[0] < key:
                        count, pushed = stage(consumer_pe, key)
                        processed += count
                        fifo_pushes += pushed
                    processed += 1
                    fifo = fifos[consumer_pe]
                    if len(fifo) < fifo_depth:
                        fifo.append(arrive)
                        fifo_pushes += 1
            for pe, waiting in enumerate(pending):
                if waiting and waiting[0] < limit:
                    count, pushed = stage(pe, limit)
                    processed += count
                    fifo_pushes += pushed
        finally:
            self._now = now
            self._processed = processed
            self._cache_used = cache_used
            self._max_finish = max_finish
            trace.num_instances = num_instances
            trace.busy_units = busy_units
            trace.lateness_total = lateness_total
            trace.lateness_max = lateness_max
            trace.num_transfers = num_transfers
            trace.cache_spills = cache_spills
            trace.cache_peak_slots = cache_peak
            stats.fifo_pushes = fifo_pushes
            stats.alu_ops = alu_ops
            mem.cache_accesses = cache_accesses
            mem.cache_bytes = cache_bytes
            mem.edram_accesses = edram_accesses
            mem.edram_bytes = edram_bytes

    def _stage(self, pe: int, below: int) -> Tuple[int, int]:
        """Stage PE ``pe``'s pending arrivals keyed below ``below`` into its
        pFIFO, in key order. Returns the arrivals staged and the pFIFO
        pushes, for the caller's counters."""
        waiting = self._pending[pe]
        fifo = self._fifo[pe]
        rid_mask = self._keys.rid_mask
        staged = pushed = 0
        while waiting and waiting[0] < below:
            staged += 1
            if len(fifo) < PFIFO_DEPTH:
                fifo.append(heappop(waiting) & rid_mask)
                pushed += 1
            else:
                heappop(waiting)
        return staged, pushed

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def _raise_fault(self, unit: str, unit_id: int, now: int) -> None:
        assert self.fault_model is not None
        raise PeFaultError(
            unit,
            unit_id,
            round=self._current_round,
            time=now,
            fault_iteration=self.fault_model.fault_iteration_of(unit, unit_id),
        )

    def _update_fault_mask(self, boundary_round: int) -> bool:
        """Refresh the active failure masks; True when a unit just died."""
        assert self.fault_model is not None
        pes, vaults = self.fault_model.mask_at(boundary_round)
        changed = pes != self._failed_pes or vaults != self._failed_vaults
        self._failed_pes = pes
        self._failed_vaults = vaults
        return changed

    # ------------------------------------------------------------------
    # steady-state machinery
    # ------------------------------------------------------------------
    def _snapshot(self) -> _BoundarySnapshot:
        trace = self.trace
        return _BoundarySnapshot(
            trace_stats=tuple(trace.stats.as_dict().values()),
            memory_stats=tuple(self._mem_stats.as_dict().values()),
            cache_spills=trace.cache_spills,
            num_instances=trace.num_instances,
            num_transfers=trace.num_transfers,
            busy_units=trace.busy_units,
            lateness_total=trace.lateness_total,
            events_processed=self._processed,
        )

    def fifo_entries(self, pe: int) -> Tuple[Tuple[Tuple[int, int], int], ...]:
        """PE ``pe``'s pFIFO, oldest first, each rid decoded to its edge's
        ``((e0, e1), size_bytes)``."""
        fields = self._rid_fields
        return tuple(fields[rid][1:] for rid in self._fifo[pe])

    def _canonical(self, reference_time: int, reference_iteration: int):
        """The state relative to a round boundary, as a comparable tuple.

        Equal canonical forms at two boundaries imply the simulation is
        periodic from the earlier one onward: every component that can
        influence a future event is included (sorted where container
        order is irrelevant, in processing order where it is not). Clocks
        that lag the reference clamp to zero -- every future event fires
        at or after it, so a resource idle since ``T - 3`` and one idle
        since ``T - 9`` behave identically. Nominal starts are *not*
        clamped (they feed the lateness accounting), so convergence is
        declared conservatively.
        """
        t = reference_time
        r = reference_iteration
        pe_state = tuple(
            (max(free - t, 0), self.fifo_entries(pe))
            for pe, free in enumerate(self._pe_free)
        )
        vault_state = tuple(max(free - t, 0) for free in self._vault_free)
        crossbar_state = (
            tuple(max(free - t, 0) for free in self._xin),
            tuple(max(free - t, 0) for free in self._xout),
        )
        keys = self._keys
        rid_bits = keys.rid_bits
        rid_mask = keys.rid_mask
        iteration_mask = keys.iteration_mask
        fields = self._rid_fields
        cache_state = tuple(sorted(
            (fields[k & rid_mask][1], (k >> rid_bits) - r, slots)
            for k, slots in self._cache_live.items()
        ))
        # The form an arrival event of its own per transfer gave: a
        # pending arrival is a queued arrive event, and an in-edge its
        # consumer still waits for; a start its pending arrivals have not
        # all reached is not queued yet.
        arrivals = [key for waiting in self._pending for key in waiting]
        waiting_on: Dict[int, int] = {}
        for key in arrivals:
            record = (key & iteration_mask) | self._rows[key & rid_mask]
            waiting_on[record] = waiting_on.get(record, 0) + 1
        pending_state = tuple(sorted(
            (k & rid_mask, (k >> rid_bits) - r, count + waiting_on.get(k, 0),
             max(staged - t, 0))
            for k, (count, staged, _, _) in self._inst.items()
            if count or k in waiting_on
        ))
        nominal_state = tuple(sorted(
            (k & rid_mask, (k >> rid_bits) - r, start - t)
            for k, (_, _, start, _) in self._inst.items()
        ))
        event_state = []
        for key in sorted(self._heap + arrivals):
            time, prio, iteration, rid = keys.unpack(key)
            op_id, edge, size = fields[rid]
            if prio == _PRIO_START and (
                (key & iteration_mask) | op_id
            ) in waiting_on:
                continue
            event_state.append((
                time - t, prio, _KIND_OF_PRIO[prio], op_id, iteration - r,
                edge, size,
            ))
        return (
            pe_state,
            vault_state,
            crossbar_state,
            self._cache_used,
            cache_state,
            pending_state,
            nominal_state,
            tuple(event_state),
        )

    def _fingerprint(self, reference_time: int, reference_iteration: int) -> str:
        """Stable digest of :meth:`_canonical` (for logs and traces)."""
        canon = self._canonical(reference_time, reference_iteration)
        return hashlib.sha256(repr(canon).encode("utf-8")).hexdigest()[:16]

    def _replay_counters(
        self,
        current: _BoundarySnapshot,
        previous: _BoundarySnapshot,
        repetitions: int,
    ) -> Tuple[int, int]:
        """Add ``repetitions`` times the increments from ``previous`` to
        ``current`` to every exact counter; returns the instances and
        transfers added."""
        trace = self.trace
        for index, name in enumerate(list(trace.stats.as_dict())):
            delta = current.trace_stats[index] - previous.trace_stats[index]
            setattr(trace.stats, name,
                    getattr(trace.stats, name) + repetitions * delta)
        for index, name in enumerate(list(self._mem_stats.as_dict())):
            delta = current.memory_stats[index] - previous.memory_stats[index]
            setattr(self._mem_stats, name,
                    getattr(self._mem_stats, name) + repetitions * delta)
        instances = repetitions * (current.num_instances - previous.num_instances)
        transfers = repetitions * (current.num_transfers - previous.num_transfers)
        trace.cache_spills += repetitions * (
            current.cache_spills - previous.cache_spills
        )
        trace.num_instances += instances
        trace.num_transfers += transfers
        trace.busy_units += repetitions * (
            current.busy_units - previous.busy_units
        )
        trace.lateness_total += repetitions * (
            current.lateness_total - previous.lateness_total
        )
        self._events_skipped += repetitions * (
            current.events_processed - previous.events_processed
        )
        return instances, transfers

    def _fast_forward(
        self,
        boundary_round: int,
        repetitions: int,
        period_rounds: int,
        current: _BoundarySnapshot,
        previous: _BoundarySnapshot,
    ) -> None:
        """Replay ``repetitions`` converged limit cycles analytically.

        ``previous`` is the snapshot ``period_rounds`` boundaries before
        ``current``; their counter delta covers one full cycle. Counters
        advance by ``repetitions`` times that delta; every absolute
        clock, timestamp and iteration label is spliced forward -- an
        exact translation of the simulation, so the subsequent epilogue
        simulation continues bit-for-bit as if every skipped round had
        been executed.
        """
        trace = self.trace
        rounds = repetitions * period_rounds
        time_shift = rounds * self.period

        # 1. Counter replay: the converged per-cycle delta, M times.
        instances_skipped, transfers_skipped = self._replay_counters(
            current, previous, repetitions
        )
        self._max_finish += time_shift

        # 2. Timestamp splice: every timeline shifts by the skipped time;
        # iteration labels of live bookkeeping rebuilt with the round shift.
        self._pe_free = [free + time_shift for free in self._pe_free]
        self._vault_free = [free + time_shift for free in self._vault_free]
        self._xin = [free + time_shift for free in self._xin]
        self._xout = [free + time_shift for free in self._xout]
        # Keys carry (iteration << RB) above their rid: one add shifts a
        # label, and one more the time of an event. A constant added to
        # every key keeps their order, so the heap stays a heap.
        label_shift = rounds << self._keys.rid_bits
        self._cache_live = {
            k + label_shift: slots for k, slots in self._cache_live.items()
        }
        self._inst = {
            k + label_shift: [
                count, staged + time_shift, start + time_shift,
                late + time_shift,
            ]
            for k, (count, staged, start, late) in self._inst.items()
        }
        key_shift = (time_shift << self._keys.time_shift) + label_shift
        self._heap = [key + key_shift for key in self._heap]
        self._pending = [
            [key + key_shift for key in waiting] for waiting in self._pending
        ]
        self._next_iteration += rounds

        # 3. Bookkeeping for observability and the sink.
        trace.converged_round = boundary_round
        trace.converged_period = period_rounds
        # += not =: a run with timed faults may converge, fast-forward to
        # the fault boundary, re-converge on the other side and splice
        # again -- the counter totals every skipped round.
        trace.rounds_fast_forwarded += rounds
        trace.steady_fingerprint = self._fingerprint(
            boundary_round * self.period, boundary_round
        )
        trace.sink.on_fast_forward(FastForwardNotice(
            rounds=rounds,
            time_shift=time_shift,
            iteration_shift=rounds,
            instances_skipped=instances_skipped,
            transfers_skipped=transfers_skipped,
        ))

    def _converge(
        self,
        boundary_round: int,
        period_rounds: int,
        current: _BoundarySnapshot,
        previous: _BoundarySnapshot,
    ) -> int:
        """Act on a period confirmed at ``boundary_round``: splice forward
        every whole period up to the horizon. Returns the round the run
        continues from."""
        self._converged = True
        trace = self.trace
        # Never splice across a fault boundary: the converged fingerprint
        # only describes the machine *between* faults, so the fast-forward
        # horizon stops one round short of the next scheduled fault event.
        horizon = self.iterations
        if self.fault_model is not None:
            next_fault = self.fault_model.next_event_after(boundary_round)
            if next_fault is not None:
                horizon = min(horizon, next_fault - 1)
        repetitions = max(0, (horizon - boundary_round) // period_rounds)
        if repetitions > 0:
            self._fast_forward(
                boundary_round, repetitions, period_rounds, current, previous
            )
            return boundary_round + repetitions * period_rounds
        trace.converged_round = boundary_round
        trace.converged_period = period_rounds
        trace.steady_fingerprint = self._fingerprint(
            boundary_round * self.period, boundary_round
        )
        return boundary_round

    # ------------------------------------------------------------------
    # round states
    # ------------------------------------------------------------------
    def _capture(
        self, boundary_round: int, snapshots: Dict[int, _BoundarySnapshot]
    ) -> _RoundState:
        """The state at ``boundary_round``, with the detector's counter
        window ``snapshots``."""
        trace = self.trace
        return _RoundState(
            round=boundary_round,
            keys=self._keys,
            max_period=self.max_period,
            window=tuple(snapshots.items()),
            lateness_max=trace.lateness_max,
            cache_peak_slots=trace.cache_peak_slots,
            pes_used=frozenset(trace.pes_used),
            max_finish=self._max_finish,
            failed_pes=self._failed_pes,
            failed_vaults=self._failed_vaults,
            cache_used=self._cache_used,
            machine=marshal.dumps((
                self._pe_free, self._fifo, self._vault_free, self._xin,
                self._xout, self._cache_live, self._inst, self._heap,
                self._pending,
            )),
        )

    def _load(self, state: _RoundState) -> Dict[int, _BoundarySnapshot]:
        """Put the machine in ``state``'s state; returns the detector's
        counter window to continue from."""
        if state.max_period != self.max_period:
            raise SimulationError(
                f"a round state of a detector with steady_max_period "
                f"{state.max_period} cannot serve one with {self.max_period}"
            )
        (self._pe_free, self._fifo, self._vault_free, self._xin, self._xout,
         self._cache_live, self._inst, self._heap,
         self._pending) = marshal.loads(state.machine)
        keys = self._keys
        if state.keys.iteration_bits != keys.iteration_bits:
            # Repacking keeps the key order, so heaps stay heaps.
            unpack = state.keys.unpack
            self._heap = [keys.pack(*unpack(key)) for key in self._heap]
            self._pending = [
                [keys.pack(*unpack(key)) for key in waiting]
                for waiting in self._pending
            ]
        self._cache_used = state.cache_used
        self._max_finish = state.max_finish
        self._next_iteration = state.round + 1
        self._failed_pes = state.failed_pes
        self._failed_vaults = state.failed_vaults
        window = dict(state.window)
        counters = window[state.round]
        trace = self.trace
        for name, value in zip(list(trace.stats.as_dict()), counters.trace_stats):
            setattr(trace.stats, name, value)
        for name, value in zip(
            list(self._mem_stats.as_dict()), counters.memory_stats
        ):
            setattr(self._mem_stats, name, value)
        trace.cache_spills = counters.cache_spills
        trace.num_instances = counters.num_instances
        trace.num_transfers = counters.num_transfers
        trace.busy_units = counters.busy_units
        trace.lateness_total = counters.lateness_total
        self._processed = counters.events_processed
        trace.lateness_max = state.lateness_max
        trace.cache_peak_slots = state.cache_peak_slots
        trace.pes_used = set(state.pes_used)
        return window

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def execute(self) -> ExecutionTrace:
        """Simulate the run; with a store of round states, from the latest
        state it holds for ``N``, returning it extended by the run's own
        on ``trace.states``.

        A fresh run reaches the boundary's state at its round, so a run
        the boundary covers loads it there and splices exactly as the
        fresh run does. The rounds after the splice are simulated once per
        remainder ``(N - round) mod period``; a later ``N`` of the same
        remainder adds their stored increments instead.
        """
        states = self._states
        if states is None:
            self._simulate(0)
            return self._finish()
        trace = self.trace
        trace.states = states
        boundary = states.boundary
        if boundary is not None and boundary.covers(self.iterations):
            self._boundary = boundary
            window = self._load(boundary.state)
            splice = self._converge(
                boundary.round, boundary.period, window[boundary.round],
                boundary.previous,
            )
            remainder = (self.iterations - boundary.round) % boundary.period
            tail = boundary.tails.get(remainder)
            if tail is None:
                self._simulate(splice)
            else:
                self._replay_counters(tail.end, tail.start, 1)
                trace.lateness_max = tail.lateness_max
                trace.cache_peak_slots = tail.cache_peak_slots
                trace.pes_used = set(tail.pes_used)
                self._max_finish = splice * self.period + tail.finish
        else:
            state = states.latest(self.iterations)
            if state is None:
                self._simulate(0)
            else:
                self._simulate(state.round, self._load(state))
        trace.states = trace.states.extended(
            self._exported, self._tables, self._boundary
        )
        return self._finish()

    def _simulate(
        self,
        boundary_round: int,
        history: Optional[Dict[int, _BoundarySnapshot]] = None,
    ) -> None:
        """Simulate the rounds after ``boundary_round`` until the heap drains.

        In the steady-state mode a run that has not converged yet looks
        for a period at every boundary. A run given a store whose boundary
        is not set exports one at its first convergence, with no fault
        event left ahead, and only when every period candidate found so
        far was armed: a candidate skipped because ``N`` was too close
        would be armed by a larger ``N``, whose run would then take another
        path. A run that continues from a splice of a boundary -- the one
        it exported, or the one it resumed from -- stores the rounds after
        the splice as the boundary's tail for its remainder.

        A run given a store also exports a prefix state at the prefix
        rounds up to ``N`` while its detector has found no period
        candidate, checked at the round itself too: until then the
        detector's whole state is the counter window, which ``history``
        restores on a run that continues from a prefix state.
        """
        trace = self.trace
        n = self.iterations
        # A candidate needs r >= R_max + 3 and is armed only when N - r > q,
        # so a run of N <= R_max + 3 never arms one: it detects only to
        # export prefix states, and that changes nothing else it does.
        detecting = self.mode is SimMode.STEADY_STATE and (
            n > self.r_max + 3 or self._exported is not None
        )
        #: no period candidate found yet, and a store given.
        clean = detecting and self._exported is not None
        #: recent boundary counters (cheap; pruned to a sliding window).
        snapshots: Dict[int, _BoundarySnapshot] = (
            history if history is not None else {}
        )
        #: canonical forms computed during a confirmation phase.
        canonicals: Dict[int, tuple] = {}
        confirm_q: Optional[int] = None
        confirm_from = 0
        failed_confirms = 0
        #: smallest N whose run arms every confirmation this one armed.
        min_iterations = self.r_max + 4
        resumable = True
        #: counters and round at the splice the tail is measured from.
        tail_from = (self._snapshot(), boundary_round) if self._converged else None

        while self._heap or self._next_iteration <= n:
            boundary_round += 1
            self._current_round = boundary_round
            if self.fault_model is not None and self._update_fault_mask(
                boundary_round
            ):
                # A unit just died. Everything the convergence detector
                # learned describes the healthy(er) machine, so the
                # fingerprint history is invalid across this boundary.
                snapshots.clear()
                canonicals.clear()
                confirm_q = None
                self._converged = False
            if self._next_iteration <= min(boundary_round, n):
                self._materialize(self._next_iteration)
                self._next_iteration += 1
            boundary_time = boundary_round * self.period
            self._run_until(boundary_time - 1)
            trace.rounds_simulated += 1
            if self._round_probe is not None:
                self._round_probe(boundary_round, self._snapshot())
            if not detecting or self._converged or boundary_round > n:
                continue

            # Phase 0 (every boundary, cheap): counter snapshot.
            snapshots[boundary_round] = self._snapshot()
            window = 2 * self.max_period + 2
            snapshots.pop(boundary_round - window, None)

            if confirm_q is not None:
                # Phase 2: exact confirmation of the candidate period.
                canonical = self._canonical(boundary_time, boundary_round)
                canonicals[boundary_round] = canonical
                reference = canonicals.get(boundary_round - confirm_q)
                if reference is not None and canonical == reference:
                    current = snapshots[boundary_round]
                    previous = snapshots[boundary_round - confirm_q]
                    if (
                        resumable and trace.converged_round is None
                        and self._exported is not None
                        and trace.states.boundary is None
                        and (self.fault_model is None
                             or self.fault_model.next_event_after(
                                 boundary_round) is None)
                    ):
                        self._boundary = SteadyBoundary(
                            self._capture(boundary_round, snapshots),
                            confirm_q,
                            max(min_iterations, boundary_round),
                            previous,
                        )
                    boundary_round = self._converge(
                        boundary_round, confirm_q, current, previous
                    )
                    if self._boundary is not None:
                        tail_from = (self._snapshot(), boundary_round)
                    snapshots.clear()
                    canonicals.clear()
                    confirm_q = None
                elif boundary_round - confirm_from >= 2 * confirm_q:
                    # Two full candidate cycles without an exact match:
                    # the cheap signal was a coincidence.
                    confirm_q = None
                    canonicals.clear()
                    failed_confirms += 1
                    if failed_confirms >= self.confirm_budget:
                        detecting = False  # stop paying for fingerprints
                        snapshots.clear()
            elif boundary_round >= self.r_max + 2:
                # Phase 1: arm a confirmation when deltas look periodic.
                q = candidate_period(
                    boundary_round, snapshots, self.max_period, self.r_max
                )
                if q is not None:
                    clean = False
                    if n - boundary_round > q:
                        confirm_q = q
                        confirm_from = boundary_round
                        canonicals[boundary_round] = self._canonical(
                            boundary_time, boundary_round
                        )
                        min_iterations = max(
                            min_iterations, boundary_round + q + 1
                        )
                    else:
                        resumable = False
            if clean and (
                boundary_round == n
                or (boundary_round % _PREFIX_EVERY == 0
                    and boundary_round <= _PREFIX_LAST)
            ):
                self._exported.append(
                    self._capture(boundary_round, snapshots)
                )
        if tail_from is not None:
            self._store_tail(*tail_from)

    def _store_tail(self, start: _BoundarySnapshot, splice: int) -> None:
        """Record the rounds since the splice at ``splice`` as the tail of
        this ``N``'s remainder on the boundary the run spliced from."""
        trace = self.trace
        boundary = self._boundary
        remainder = (self.iterations - boundary.round) % boundary.period
        boundary.tails[remainder] = _Tail(
            start=start,
            end=self._snapshot(),
            lateness_max=trace.lateness_max,
            cache_peak_slots=trace.cache_peak_slots,
            pes_used=frozenset(trace.pes_used),
            finish=self._max_finish - splice * self.period,
        )

    def _finish(self) -> ExecutionTrace:
        trace = self.trace
        executed = trace.num_instances
        expected = self.graph.num_vertices * self.iterations
        if executed != expected:
            raise SimulationError(
                f"executed {executed} instances, expected {expected}; "
                "dependency deadlock in the schedule"
            )
        trace.realized_makespan = self._max_finish
        trace.stats = trace.stats.merged_with(self._mem_stats)
        trace.events_processed = self._processed + self._events_skipped
        return trace

