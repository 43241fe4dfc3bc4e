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
* all static facts are **precomputed rows** built once per run, in one
  pass over the ops and one over the edges, from the schedule, the
  compiler's edge prices (:func:`repro.core.retiming.price_edges`) and
  the :mod:`repro.pim` models, one per event ``rid``
  (arrival: consumer, its PE, the edge's shared pFIFO entry; start: PE,
  execution time, ALU cost, pFIFO entries, cache-placed in-edges;
  produce: per out-edge placement, slots, transfer latencies, home vault,
  vault service time), so the hot loop does list indexing only;
* events are **packed integers** on a ``heapq`` (:class:`_EventKeys`):
  ``key = (((time << 2) | priority) << (IB + RB)) | (iteration << RB) |
  rid``. ``rid`` is a static row rank fixed when the tables are built --
  arrivals ranked by ``(consumer, e0, e1)``, then starts and productions
  each ranked by op id -- and indexes the row of static facts the
  handler needs. ``RB`` is the bit length of ``max(E + 2V, max_op_id +
  1)`` and ``IB`` that of ``iterations + 1``, so no field can overflow
  into the next and integer order *is* the order of the tuple ``(time,
  priority, iteration, op, e0, e1)``. That content key is unique per
  event, so no sequence number is needed to break ties: same-time
  ordering is a function of event identity alone, which is what lets the
  fast-forward splice shift every in-flight key with one add;
* per-instance bookkeeping is **one record per operation instance**,
  ``[remaining in-edges, latest arrival, nominal start]``, keyed by the
  integer ``(iteration << RB) | op_id``; live cache slots are keyed by
  ``(iteration << RB) | edge_rid``.

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
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple

from repro.core.baseline import SpartaResult
from repro.core.paraconv import ParaConvResult
from repro.core.profit import require_numpy_floor
from repro.core.retiming import price_edges
from repro.pim.config import ConfigurationError, PimConfig
from repro.pim.energy import EnergyModel, EnergyReport
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.pim.memory import MemorySystem, Placement
from repro.pim.pe import PFIFO_DEPTH
from repro.pim.stats import TrafficStats
from repro.sim.engine import SimulationError
from repro.sim.modes import SimMode
from repro.sim.sinks import FastForwardNotice, InMemorySink, NullSink, TraceSink
from repro.sim.trace import InstanceRecord, TransferKind, TransferRecord

np = require_numpy_floor(__name__)

__all__ = [
    "ExecutionTrace",
    "PeFaultError",
    "ScheduleExecutor",
    "SimMode",
    "simulate_sparta",
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
    """Field layout of a packed event key, sized for one run.

    ``key = (((time << 2) | prio) << shift) | (iteration << rid_bits) |
    rid`` with ``shift = iteration_bits + rid_bits``. Time is the top
    field, so it is unbounded; every lower field is checked to fit its
    width here, once, so integer order equals ``(time, prio, iteration,
    rid)`` tuple order for every key the run can build.
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
        assert num_rids - 1 <= self.rid_mask and max_op_id <= self.rid_mask
        assert iterations + 1 < 1 << self.iteration_bits
        assert max(_KIND_OF_PRIO) < 1 << _PRIO_BITS

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
    #: digest of the converged machine state (None before convergence).
    steady_fingerprint: Optional[str] = None

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


class ScheduleExecutor:
    """Discrete-event executor for :class:`ParaConvResult` schedules.

    Args:
        config: machine description.
        num_vaults: eDRAM vault count of the stacked memory (>= 1).
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
    """

    def __init__(
        self,
        config: PimConfig,
        num_vaults: int = 16,
        mode: SimMode = SimMode.FULL_UNROLL,
        sink: Optional[TraceSink] = None,
        steady_max_period: int = 8,
        steady_confirm_budget: int = 8,
        fault_model: Optional[FaultModel] = None,
        round_probe=None,
    ):
        if num_vaults < 1:
            raise ConfigurationError("num_vaults must be >= 1")
        if steady_max_period < 1:
            raise SimulationError("steady_max_period must be >= 1")
        if steady_confirm_budget < 1:
            raise SimulationError("steady_confirm_budget must be >= 1")
        self.config = config
        self.num_vaults = num_vaults
        self.mode = SimMode.from_name(mode)
        self._sink = sink
        self.steady_max_period = steady_max_period
        self.steady_confirm_budget = steady_confirm_budget
        self.fault_model = fault_model
        self.round_probe = round_probe

    def execute(
        self,
        result: ParaConvResult,
        iterations: int = 20,
        sink: Optional[TraceSink] = None,
        fault_model: Optional[FaultModel] = None,
    ) -> ExecutionTrace:
        """Run ``iterations`` logical iterations of one PE group."""
        if iterations < 1:
            raise SimulationError("iterations must be >= 1")
        run_sink = sink if sink is not None else (
            self._sink if self._sink is not None else InMemorySink()
        )
        run = _ScheduleRun(
            self.config, self.num_vaults, result, iterations,
            self.mode, run_sink,
            max_period=self.steady_max_period,
            confirm_budget=self.steady_confirm_budget,
            fault_model=(
                fault_model if fault_model is not None else self.fault_model
            ),
            round_probe=self.round_probe,
        )
        return run.execute()


class _ScheduleRun:
    """One executor invocation: static tables + timelines + loop."""

    def __init__(
        self,
        config: PimConfig,
        num_vaults: int,
        result: ParaConvResult,
        iterations: int,
        mode: SimMode,
        sink: TraceSink,
        max_period: int = 8,
        confirm_budget: int = 8,
        fault_model: Optional[FaultModel] = None,
        round_probe=None,
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
        graph = result.graph
        kernel = schedule.kernel
        self.period = schedule.period
        self.r_max = schedule.max_retiming
        width = result.group_width
        self.graph = graph

        # ---- event-key layout and row ranks ---------------------------
        # One rid space: arrivals ranked by (consumer, e0, e1), then the
        # starts, then the productions, each ranked by op id -- within one
        # (time, prio, iteration) the rid order is the old tuple order.
        inserted = graph.operations()
        ops = sorted(inserted, key=lambda op: op.op_id)
        size = ops[-1].op_id + 1 if ops else 0
        edges = graph.edges()
        n_edges = len(edges)
        n_ops = len(ops)
        keys = self._keys = _EventKeys(n_edges + 2 * n_ops, size - 1, iterations)
        arrive_rid = {
            edge.key: rid
            for rid, edge in enumerate(
                sorted(edges, key=lambda e: (e.consumer, e.producer))
            )
        }
        self._n_arrive = n_edges
        self._n_arrive_start = n_edges + n_ops
        #: rid -> ``(op_id, (e0, e1), size)`` of its events, for decoding.
        rid_fields: List[tuple] = [None] * (n_edges + 2 * n_ops)
        rows: List[tuple] = [None] * (n_edges + 2 * n_ops)

        # ---- static per-op tables (index = op_id) ---------------------
        self._op_order: List[int] = [op.op_id for op in inserted]
        in_deg = [0] * size
        #: start_const[op] = the prio and rid fields of op's start key.
        start_const = [0] * size
        static_off = [0] * size
        pe_of: Dict[int, int] = {}
        for rank, op in enumerate(ops):
            op_id = op.op_id
            placed = kernel.placement(op_id)
            pe_of[op_id] = placed.pe
            start_const[op_id] = keys.const(_PRIO_START, n_edges + rank)
            # nominal(op, it) = (it - 1) * p + static_off[op]: the whole
            # round's nominal starts become one vectorized array add.
            static_off[op_id] = (
                self.r_max - schedule.retiming[op_id]
            ) * self.period + placed.start
        self._in_deg = in_deg
        self._start_const = start_const
        self._static_off = np.asarray(static_off, dtype=np.int64)

        # ---- static rows, indexed by rid ------------------------------
        # One pass over the edges, in insertion order: per consumer that
        # is graph.in_edges() order (the pFIFO consume order), per
        # producer graph.out_edges() order. Slots and transfer units are
        # the compiler's own edge prices; vault interleaving and service
        # times come from the memory model, whose clocks are never read.
        memory = MemorySystem(config, num_vaults=num_vaults)
        placements = schedule.placements
        in_entries: Dict[int, List[tuple]] = {op.op_id: [] for op in ops}
        cache_in: Dict[int, List[int]] = {op.op_id: [] for op in ops}
        out_recs: Dict[int, List[tuple]] = {op.op_id: [] for op in ops}
        for edge, price in zip(edges, price_edges(graph, config)):
            key = price.key
            consumer = price.consumer
            size_bytes = edge.size_bytes
            rid = arrive_rid[key]
            #: the edge's one shared pFIFO entry ``((e0, e1), size_bytes)``:
            #: an arrival stages it and a start removes it by identity.
            entry = (key, size_bytes)
            consumer_pe = pe_of[consumer]
            is_cache = placements[key] is Placement.CACHE
            vault = memory.vault_for(key)
            in_deg[consumer] += 1
            in_entries[consumer].append(entry)
            if is_cache:
                cache_in[consumer].append(rid)
            #: arrival row: (consumer, consumer_pe, fifo_entry,
            #:   consumer_start_const)
            rows[rid] = (consumer, consumer_pe, entry, start_const[consumer])
            rid_fields[rid] = (consumer, key, size_bytes)
            #: out-edge record of the producer's produce row: (arrive_const,
            #:   (e0, e1), size, is_cache, slots, cache_units, edram_units,
            #:   service, vault, consumer_pe). The arrival priority is 0,
            #:   so arrive_const is also the edge's rid.
            out_recs[price.producer].append((
                keys.const(_PRIO_ARRIVE, rid),
                key,
                size_bytes,
                is_cache,
                price.slots,
                price.cache_units,
                price.edram_units,
                vault.access_time(size_bytes),
                vault.vault_id,
                consumer_pe,
            ))
        for rank, op in enumerate(ops):
            op_id = op.op_id
            start = n_edges + rank
            produce = start + n_ops
            #: start row: (op_id, pe, exec_time, alu_cost, in_entries,
            #:   cache-placed in-edge rids, produce_const).
            rows[start] = (
                op_id,
                pe_of[op_id],
                op.execution_time,
                max(op.work, op.execution_time),
                tuple(in_entries[op_id]),
                tuple(cache_in[op_id]),
                keys.const(_PRIO_PRODUCE, produce),
            )
            #: produce row: the op's out-edge records.
            rows[produce] = tuple(out_recs[op_id])
            rid_fields[start] = (op_id, (-1, -1), 0)
            rid_fields[produce] = (op_id, (-1, -1), 0)
        self._rid_fields = rid_fields
        self._rows = rows

        # ---- timeline arrays + dynamic state --------------------------
        self._pe_free: List[int] = [0] * width
        self._fifo: List[List[tuple]] = [[] for _ in range(width)]
        self._vault_free: List[int] = [0] * num_vaults
        self._xin: List[int] = [0] * width
        self._xout: List[int] = [0] * num_vaults
        # Per-group cache share, as the allocator assumed.
        self._cache_cap = max(
            memory.cache.capacity_slots // result.num_groups, 0
        )
        self._cache_used = 0
        #: (iteration << RB) | edge_rid -> cache slots held.
        self._cache_live: Dict[int, int] = {}
        #: (iteration << RB) | op_id -> [remaining in-edges, latest
        #: arrival, nominal start]; dropped when the instance starts.
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
        delivered. The round's nominal starts are one vectorized add.
        """
        offs = (self._static_off + (iteration - 1) * self.period).tolist()
        heap = self._heap
        inst = self._inst
        in_deg = self._in_deg
        start_const = self._start_const
        time_shift = self._keys.time_shift
        ibits = iteration << self._keys.rid_bits
        for op_id in self._op_order:
            nominal = offs[op_id]
            degree = in_deg[op_id]
            inst[ibits | op_id] = [degree, 0, nominal]
            if degree == 0:
                heappush(
                    heap, (nominal << time_shift) | ibits | start_const[op_id]
                )

    def _run_until(self, until: int) -> None:
        """Dispatch every queued event due at or before ``until``.

        One fused loop handles all three event kinds (arrive, start,
        produce), told apart by the rid range of the popped key. Static
        rows, timelines and dicts are bound to locals once per call and
        every exact counter accumulates in a local; the ``finally`` writes
        the counters back on every exit -- a normal return or a
        :class:`PeFaultError` -- so ``round_probe``, :meth:`_snapshot`,
        :meth:`_canonical` and the fault's round/time see the same state
        as if each event had updated it in place. A push keeps the popped
        key's iteration bits and ORs in the new time and the row's
        prio/rid constant.
        """
        heap = self._heap
        trace = self.trace
        stats = trace.stats
        mem = self._mem_stats
        # ---- static rows and key layout ----------------------------------
        rows = self._rows
        n_arrive = self._n_arrive
        n_arrive_start = self._n_arrive_start
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
        try:
            while heap and heap[0] < limit:
                key = heappop(heap)
                processed += 1
                now = key >> time_shift
                ibits = key & iteration_mask
                rid = key & rid_mask
                if rid < n_arrive:
                    consumer, consumer_pe, entry, start_const = rows[rid]
                    rec = inst[ibits | consumer]
                    if now > rec[1]:
                        rec[1] = now
                    # Stage the datum in the consumer PE's pFIFO (occupancy
                    # stats; a full FIFO degrades to a direct cache/eDRAM
                    # read).
                    fifo = fifos[consumer_pe]
                    if len(fifo) < fifo_depth:
                        fifo.append(entry)
                        fifo_pushes += 1
                    remaining = rec[0] - 1
                    rec[0] = remaining
                    if remaining:
                        continue
                    start_at = rec[2]
                    if rec[1] > start_at:
                        start_at = rec[1]  # the latest arrival, >= now
                    heappush(heap, (start_at << time_shift) | ibits | start_const)
                elif rid < n_arrive_start:
                    (op_id, pe_id, duration, alu_cost, in_entries, cache_in,
                     produce_const) = rows[rid]
                    if pe_id in failed_pes:
                        # The schedule placed this instance on a PE that is
                        # dead under the active fault mask: abort before
                        # mutating machine state.
                        self._raise_fault(FAULT_UNIT_PE, pe_id, now)
                    # Consume the pFIFO entries staged for this instance --
                    # the oldest per in-edge (list.remove takes the first
                    # match), so a neighbour instance's datum is never
                    # stolen.
                    fifo = fifos[pe_id]
                    for entry in in_entries:
                        if entry in fifo:
                            fifo.remove(entry)
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
                else:  # produce
                    finish = now
                    for (arrive, edge_key, size, is_cache, slots, cache_units,
                         edram_units, service, vault,
                         consumer_pe) in rows[rid]:
                        if is_cache:
                            used = cache_used + slots
                            if used <= cache_cap:
                                cache_live[ibits | arrive] = slots
                                cache_used = used
                                if used > cache_peak:
                                    cache_peak = used
                                cache_accesses += 1
                                cache_bytes += size
                                arrival = finish + cache_units
                                if emit:
                                    record_transfer(TransferRecord(
                                        edge_key, ibits >> rid_bits,
                                        TransferKind.CACHE,
                                        size, finish, arrival,
                                    ))
                                num_transfers += 1
                                heappush(
                                    heap,
                                    (arrival << time_shift) | ibits | arrive,
                                )
                                continue
                            cache_spills += 1  # transient overflow: spill
                        if vault in failed_vaults:
                            # The intermediate result's home vault is dead:
                            # its eDRAM copy is gone, so neither the
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
                        issued = finish
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
                                edge_key, ibits >> rid_bits, TransferKind.EDRAM,
                                size, finish, arrival,
                            ))
                        num_transfers += 1
                        heappush(heap, (arrival << time_shift) | ibits | arrive)
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
        pe_clamped = np.maximum(
            np.asarray(self._pe_free, dtype=np.int64) - t, 0
        ).tolist()
        pe_state = tuple(
            (free, tuple(fifo))
            for free, fifo in zip(pe_clamped, self._fifo)
        )
        vault_state = tuple(np.maximum(
            np.asarray(self._vault_free, dtype=np.int64) - t, 0
        ).tolist())
        crossbar_state = (
            tuple(np.maximum(
                np.asarray(self._xin, dtype=np.int64) - t, 0
            ).tolist()),
            tuple(np.maximum(
                np.asarray(self._xout, dtype=np.int64) - t, 0
            ).tolist()),
        )
        keys = self._keys
        rid_bits = keys.rid_bits
        rid_mask = keys.rid_mask
        fields = self._rid_fields
        cache_state = tuple(sorted(
            (fields[k & rid_mask][1], (k >> rid_bits) - r, slots)
            for k, slots in self._cache_live.items()
        ))
        pending_state = tuple(sorted(
            (k & rid_mask, (k >> rid_bits) - r, count, max(avail - t, 0))
            for k, (count, avail, _) in self._inst.items()
            if count
        ))
        nominal_state = tuple(sorted(
            (k & rid_mask, (k >> rid_bits) - r, start - t)
            for k, (_, _, start) in self._inst.items()
        ))
        event_state = []
        for key in sorted(self._heap):
            time, prio, iteration, rid = keys.unpack(key)
            op_id, edge, size = fields[rid]
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
        for index, name in enumerate(list(trace.stats.as_dict())):
            delta = current.trace_stats[index] - previous.trace_stats[index]
            setattr(trace.stats, name,
                    getattr(trace.stats, name) + repetitions * delta)
        for index, name in enumerate(list(self._mem_stats.as_dict())):
            delta = current.memory_stats[index] - previous.memory_stats[index]
            setattr(self._mem_stats, name,
                    getattr(self._mem_stats, name) + repetitions * delta)
        instances_skipped = repetitions * (
            current.num_instances - previous.num_instances
        )
        transfers_skipped = repetitions * (
            current.num_transfers - previous.num_transfers
        )
        trace.cache_spills += repetitions * (
            current.cache_spills - previous.cache_spills
        )
        trace.num_instances += instances_skipped
        trace.num_transfers += transfers_skipped
        trace.busy_units += repetitions * (
            current.busy_units - previous.busy_units
        )
        trace.lateness_total += repetitions * (
            current.lateness_total - previous.lateness_total
        )
        self._events_skipped += repetitions * (
            current.events_processed - previous.events_processed
        )
        self._max_finish += time_shift

        # 2. Timestamp splice: one array add per timeline; iteration
        # labels of live bookkeeping rebuilt with the round shift.
        self._pe_free = (
            np.asarray(self._pe_free, dtype=np.int64) + time_shift
        ).tolist()
        self._vault_free = (
            np.asarray(self._vault_free, dtype=np.int64) + time_shift
        ).tolist()
        self._xin = (
            np.asarray(self._xin, dtype=np.int64) + time_shift
        ).tolist()
        self._xout = (
            np.asarray(self._xout, dtype=np.int64) + time_shift
        ).tolist()
        # Keys carry (iteration << RB) above their rid: one add shifts a
        # label, and one more the time of an event. A constant added to
        # every key keeps their order, so the heap stays a heap.
        label_shift = rounds << self._keys.rid_bits
        self._cache_live = {
            k + label_shift: slots for k, slots in self._cache_live.items()
        }
        self._inst = {
            k + label_shift: [count, avail + time_shift, start + time_shift]
            for k, (count, avail, start) in self._inst.items()
        }
        key_shift = (time_shift << self._keys.time_shift) + label_shift
        self._heap = [key + key_shift for key in self._heap]
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

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------
    def execute(self) -> ExecutionTrace:
        trace = self.trace
        n = self.iterations
        boundary_round = 0
        detecting = (
            self.mode is SimMode.STEADY_STATE and n > self.r_max + 3
        )
        #: recent boundary counters (cheap; pruned to a sliding window).
        snapshots: Dict[int, _BoundarySnapshot] = {}
        #: canonical forms computed during a confirmation phase.
        canonicals: Dict[int, tuple] = {}
        confirm_q: Optional[int] = None
        confirm_from = 0
        failed_confirms = 0

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
                    self._converged = True
                    # Never splice across a fault boundary: the converged
                    # fingerprint only describes the machine *between*
                    # faults, so the fast-forward horizon stops one round
                    # short of the next scheduled fault event.
                    horizon = n
                    if self.fault_model is not None:
                        next_fault = self.fault_model.next_event_after(
                            boundary_round
                        )
                        if next_fault is not None:
                            horizon = min(horizon, next_fault - 1)
                    repetitions = max(
                        0, (horizon - boundary_round) // confirm_q
                    )
                    if repetitions > 0:
                        self._fast_forward(
                            boundary_round, repetitions, confirm_q,
                            snapshots[boundary_round],
                            snapshots[boundary_round - confirm_q],
                        )
                        boundary_round += repetitions * confirm_q
                    else:
                        trace.converged_round = boundary_round
                        trace.converged_period = confirm_q
                        trace.steady_fingerprint = self._fingerprint(
                            boundary_time, boundary_round
                        )
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
                if q is not None and n - boundary_round > q:
                    confirm_q = q
                    confirm_from = boundary_round
                    canonicals[boundary_round] = self._canonical(
                        boundary_time, boundary_round
                    )

        executed = trace.num_instances
        expected = self.graph.num_vertices * n
        if executed != expected:
            raise SimulationError(
                f"executed {executed} instances, expected {expected}; "
                "dependency deadlock in the schedule"
            )
        trace.realized_makespan = self._max_finish
        trace.stats = trace.stats.merged_with(self._mem_stats)
        trace.events_processed = self._processed + self._events_skipped
        return trace


def simulate_sparta(
    result: SpartaResult,
    iterations: int = 20,
    num_vaults: int = 16,
    mode: SimMode = SimMode.FULL_UNROLL,
    sink: Optional[TraceSink] = None,
) -> ExecutionTrace:
    """Execute a SPARTA schedule: iterations back-to-back on one group.

    The stalled occupancies are already folded into the kernel, so the
    executor only validates resource feasibility and accumulates traffic:
    every eDRAM-placed in-edge of an operation counts as a demand fetch.

    SPARTA has no cross-iteration machine state at all (each iteration is
    a verbatim repetition of the kernel), so ``STEADY_STATE`` mode emits
    the first iteration's records, then replays the per-iteration stats
    delta ``N - 1`` times -- O(V) for any ``N``.
    """
    if iterations < 1:
        raise SimulationError("iterations must be >= 1")
    mode = SimMode.from_name(mode)
    graph = result.graph
    kernel = result.kernel
    config = result.config
    length = result.iteration_length
    memory = MemorySystem(config, num_vaults=num_vaults)
    trace = ExecutionTrace(
        config=config,
        iterations=iterations,
        analytic_makespan=iterations * length,
        realized_makespan=iterations * length,
        sink=sink if sink is not None else InMemorySink(),
        sim_mode=mode,
    )
    steady = mode is SimMode.STEADY_STATE
    simulated = 1 if steady else iterations
    for iteration in range(1, simulated + 1):
        base = (iteration - 1) * length
        for op in graph.operations():
            start = base + kernel.start(op.op_id)
            finish = base + kernel.finish(op.op_id)
            trace.sink.record_instance(InstanceRecord(
                op.op_id, iteration, kernel.pe_of(op.op_id),
                start, start, finish,
            ))
            trace.num_instances += 1
            trace.busy_units += finish - start
            trace.pes_used.add(kernel.pe_of(op.op_id))
            trace.stats.alu_ops += max(op.work, op.execution_time)
        for edge in graph.edges():
            if result.placements[edge.key] is Placement.CACHE:
                memory.record_cache_transfer(edge.size_bytes)
            else:
                memory.record_edram_transfer(edge.size_bytes)
    trace.rounds_simulated = simulated
    if steady and iterations > 1:
        skipped = iterations - 1
        per_iteration_instances = trace.num_instances
        for name, value in list(trace.stats.as_dict().items()):
            setattr(trace.stats, name, value * iterations)
        for name, value in list(memory.stats.as_dict().items()):
            setattr(memory.stats, name, value * iterations)
        trace.num_instances *= iterations
        trace.busy_units *= iterations
        trace.converged_round = 1
        trace.converged_period = 1
        trace.rounds_fast_forwarded = skipped
        trace.sink.on_fast_forward(FastForwardNotice(
            rounds=skipped,
            time_shift=skipped * length,
            iteration_shift=skipped,
            instances_skipped=skipped * per_iteration_instances,
            transfers_skipped=0,
        ))
    trace.stats = trace.stats.merged_with(memory.stats)
    return trace
