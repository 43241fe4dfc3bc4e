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
* all static facts are **precomputed tables** built once per run from
  the schedule and the :mod:`repro.pim` models (per-op: PE, execution
  time, nominal-start offset, in-degree, ALU cost, in-edge keys; per-edge:
  placement, slots, transfer latencies, home vault, vault service time),
  so the hot loop does list indexing only;
* events are **plain tuples** ``(time, priority, iteration, op, e0, e1,
  seq, size)`` on a ``heapq``. The content key ``(iteration, op) + edge``
  is unique per event, so same-time ordering is a function of event
  identity and never of the sequence number -- the property the
  fast-forward splice relies on when it rebuilds the heap with fresh
  sequence numbers.

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

        # ---- static per-op tables (index = op_id) ---------------------
        ops = list(graph.operations())
        size = max(op.op_id for op in ops) + 1 if ops else 0
        self._op_order: List[int] = [op.op_id for op in ops]
        self._pe_of: List[int] = [0] * size
        self._exec: List[int] = [0] * size
        self._alu: List[int] = [0] * size
        self._in_deg: List[int] = [0] * size
        self._in_keys: List[List[Tuple[int, int]]] = [[] for _ in range(size)]
        static_off = [0] * size
        for op in ops:
            op_id = op.op_id
            self._pe_of[op_id] = kernel.pe_of(op_id)
            self._exec[op_id] = op.execution_time
            self._alu[op_id] = max(op.work, op.execution_time)
            self._in_deg[op_id] = graph.in_degree(op_id)
            self._in_keys[op_id] = [e.key for e in graph.in_edges(op_id)]
            # nominal(op, it) = (it - 1) * p + static_off[op]: the whole
            # round's nominal starts become one vectorized array add.
            static_off[op_id] = (
                self.r_max - schedule.retiming[op_id]
            ) * self.period + kernel.start(op_id)
        self._static_off = np.asarray(static_off, dtype=np.int64)

        # ---- static per-edge tables (keyed off the producing op) ------
        # Vault interleaving and service times come from the memory
        # model; only its static answers are read, never its clocks.
        memory = MemorySystem(config, num_vaults=num_vaults)
        #: out_recs[op] = [(consumer, e0, e1, size, is_cache, slots,
        #:   cache_units, edram_units, service, vault, consumer_pe), ...]
        #:   in graph.out_edges() order.
        self._out_recs: List[List[tuple]] = [[] for _ in range(size)]
        for op in ops:
            for edge in graph.out_edges(op.op_id):
                e0, e1 = edge.key
                size_bytes = edge.size_bytes
                vault = memory.vault_for(edge.key)
                self._out_recs[op.op_id].append((
                    edge.consumer,
                    e0,
                    e1,
                    size_bytes,
                    schedule.placements[edge.key] is Placement.CACHE,
                    config.slots_required(size_bytes),
                    config.cache_transfer_units(size_bytes),
                    config.edram_transfer_units(size_bytes),
                    vault.access_time(size_bytes),
                    vault.vault_id,
                    kernel.pe_of(edge.consumer),
                ))

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
        self._cache_live: Dict[Tuple[int, int, int], int] = {}
        self._pending: Dict[Tuple[int, int], int] = {}
        self._max_avail: Dict[Tuple[int, int], int] = {}
        self._nominal: Dict[Tuple[int, int], int] = {}
        self._heap: List[tuple] = []
        self._seq = 0
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

        Source instances are scheduled at their nominal starts; dependent
        instances wait in ``pending`` until every in-edge delivered. The
        round's nominal starts are one vectorized add.
        """
        offs = (self._static_off + (iteration - 1) * self.period).tolist()
        heap = self._heap
        nominal = self._nominal
        pending = self._pending
        max_avail = self._max_avail
        in_deg = self._in_deg
        for op_id in self._op_order:
            key = (op_id, iteration)
            nominal[key] = offs[op_id]
            degree = in_deg[op_id]
            if degree == 0:
                heappush(heap, (
                    offs[op_id], _PRIO_START, iteration, op_id, -1, -1,
                    self._seq, 0,
                ))
                self._seq += 1
            else:
                pending[key] = degree
                max_avail[key] = 0

    def _arrive(self, iteration, op_id, e0, e1, size) -> None:
        key = (op_id, iteration)
        now = self._now
        max_avail = self._max_avail
        if now > max_avail[key]:
            max_avail[key] = now
        pending = self._pending
        pending[key] -= 1
        # Stage the datum in the consumer PE's pFIFO (occupancy stats;
        # a full FIFO degrades to a direct cache/eDRAM read).
        fifo = self._fifo[self._pe_of[op_id]]
        if len(fifo) < PFIFO_DEPTH:
            fifo.append(((e0, e1), size))
            self.trace.stats.fifo_pushes += 1
        if pending[key] == 0:
            start_at = self._nominal[key]
            avail = max_avail[key]
            if avail > start_at:
                start_at = avail  # avail already >= now
            del pending[key]
            del max_avail[key]
            heappush(self._heap, (
                start_at, _PRIO_START, iteration, op_id, -1, -1,
                self._seq, 0,
            ))
            self._seq += 1

    def _start(self, iteration, op_id) -> None:
        pe_id = self._pe_of[op_id]
        if pe_id in self._failed_pes:
            # The schedule placed this instance on a PE that is dead under
            # the active fault mask: abort before mutating machine state.
            self._raise_fault(FAULT_UNIT_PE, pe_id)
        trace = self.trace
        in_keys = self._in_keys[op_id]
        fifo = self._fifo[pe_id]
        # Consume the pFIFO entries staged for this instance -- the oldest
        # per in-edge, so a neighbour instance's datum is never stolen.
        for edge_key in in_keys:
            for index, entry in enumerate(fifo):
                if entry[0] == edge_key:
                    del fifo[index]
                    break
        now = self._now
        start = self._pe_free[pe_id]
        if now > start:
            start = now
        duration = self._exec[op_id]
        finish = start + duration
        self._pe_free[pe_id] = finish
        nominal = self._nominal.pop((op_id, iteration))
        if self._emit:
            trace.sink.record_instance(InstanceRecord(
                op_id=op_id, iteration=iteration, pe=pe_id,
                nominal_start=nominal, start=start, finish=finish,
            ))
        trace.num_instances += 1
        trace.busy_units += duration
        lateness = start - nominal
        trace.lateness_total += lateness
        if lateness > trace.lateness_max:
            trace.lateness_max = lateness
        trace.pes_used.add(pe_id)
        trace.stats.alu_ops += self._alu[op_id]
        if finish > self._max_finish:
            self._max_finish = finish
        cache_live = self._cache_live
        for e0, e1 in in_keys:  # consume: free cache slots of in-edges
            slots = cache_live.pop((e0, e1, iteration), None)
            if slots is not None:
                self._cache_used -= slots
        heappush(self._heap, (
            finish, _PRIO_PRODUCE, iteration, op_id, -1, -1, self._seq, 0,
        ))
        self._seq += 1

    def _produce(self, iteration, op_id) -> None:
        trace = self.trace
        mem = self._mem_stats
        finish = self._now
        for (consumer, e0, e1, size, is_cache, slots, cache_units,
             edram_units, service, vault, consumer_pe) in self._out_recs[op_id]:
            if is_cache:
                used = self._cache_used + slots
                if used <= self._cache_cap:
                    self._cache_live[(e0, e1, iteration)] = slots
                    self._cache_used = used
                    if used > trace.cache_peak_slots:
                        trace.cache_peak_slots = used
                    mem.cache_accesses += 1
                    mem.cache_bytes += size
                    arrival = finish + cache_units
                    if self._emit:
                        trace.sink.record_transfer(TransferRecord(
                            (e0, e1), iteration, TransferKind.CACHE,
                            size, finish, arrival,
                        ))
                    trace.num_transfers += 1
                    heappush(self._heap, (
                        arrival, _PRIO_ARRIVE, iteration, consumer,
                        e0, e1, self._seq, size,
                    ))
                    self._seq += 1
                    continue
                trace.cache_spills += 1  # transient overflow: spill
            if vault in self._failed_vaults:
                # The intermediate result's home vault is dead: its eDRAM
                # copy is gone, so neither the write-through nor the
                # prefetch can complete. Surface the fault.
                self._raise_fault(FAULT_UNIT_VAULT, vault)
            # eDRAM round-trip. The producer writes through to its vault
            # while still executing, so the visible cost is the
            # consumer-side fetch issued at production time: the crossbar
            # holds both ports for the bandwidth share of the transfer,
            # the vault queues and services the access, then the
            # remaining wire latency rides on top -- exactly the analytic
            # ``edram_transfer_units`` when the vault is idle.
            issued = finish
            if self._xin[consumer_pe] > issued:
                issued = self._xin[consumer_pe]
            if self._xout[vault] > issued:
                issued = self._xout[vault]
            port_finish = issued + cache_units  # the bandwidth share
            self._xin[consumer_pe] = port_finish
            self._xout[vault] = port_finish
            read_start = issued
            if self._vault_free[vault] > read_start:
                read_start = self._vault_free[vault]
            serviced = read_start + service
            self._vault_free[vault] = serviced
            extra = edram_units - service
            arrival = serviced + (extra if extra > 0 else 0)
            mem.edram_accesses += 1
            mem.edram_bytes += size
            if self._emit:
                trace.sink.record_transfer(TransferRecord(
                    (e0, e1), iteration, TransferKind.EDRAM,
                    size, finish, arrival,
                ))
            trace.num_transfers += 1
            heappush(self._heap, (
                arrival, _PRIO_ARRIVE, iteration, consumer, e0, e1,
                self._seq, size,
            ))
            self._seq += 1

    def _run_until(self, until: int) -> None:
        heap = self._heap
        while heap and heap[0][0] <= until:
            time, prio, iteration, op_id, e0, e1, _seq, size = heappop(heap)
            self._now = time
            self._processed += 1
            if prio == _PRIO_START:
                self._start(iteration, op_id)
            elif prio == _PRIO_ARRIVE:
                self._arrive(iteration, op_id, e0, e1, size)
            else:
                self._produce(iteration, op_id)

    # ------------------------------------------------------------------
    # faults
    # ------------------------------------------------------------------
    def _raise_fault(self, unit: str, unit_id: int) -> None:
        assert self.fault_model is not None
        raise PeFaultError(
            unit,
            unit_id,
            round=self._current_round,
            time=self._now,
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
        cache_state = tuple(sorted(
            ((e0, e1), iteration - r, slots)
            for (e0, e1, iteration), slots in self._cache_live.items()
        ))
        pending_state = tuple(sorted(
            (op_id, iteration - r, count,
             max(self._max_avail[(op_id, iteration)] - t, 0))
            for (op_id, iteration), count in self._pending.items()
        ))
        nominal_state = tuple(sorted(
            (op_id, iteration - r, start - t)
            for (op_id, iteration), start in self._nominal.items()
        ))
        event_state = tuple(
            (
                time - t,
                prio,
                _KIND_OF_PRIO[prio],
                op_id,
                iteration - r,
                (e0, e1),
                size,
            )
            for (time, prio, iteration, op_id, e0, e1, _seq, size)
            in sorted(self._heap)
        )
        return (
            pe_state,
            vault_state,
            crossbar_state,
            self._cache_used,
            cache_state,
            pending_state,
            nominal_state,
            event_state,
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
        self._cache_live = {
            (e0, e1, iteration + rounds): slots
            for (e0, e1, iteration), slots in self._cache_live.items()
        }
        self._pending = {
            (op_id, iteration + rounds): count
            for (op_id, iteration), count in self._pending.items()
        }
        self._max_avail = {
            (op_id, iteration + rounds): when + time_shift
            for (op_id, iteration), when in self._max_avail.items()
        }
        self._nominal = {
            (op_id, iteration + rounds): start + time_shift
            for (op_id, iteration), start in self._nominal.items()
        }
        # In-flight events: shifted in processing order with fresh seqs
        # (a sorted list already satisfies the heap invariant).
        shifted: List[tuple] = []
        seq = 0
        for (time, prio, iteration, op_id, e0, e1, _seq, size) in sorted(
            self._heap
        ):
            shifted.append((
                time + time_shift, prio, iteration + rounds, op_id,
                e0, e1, seq, size,
            ))
            seq += 1
        self._heap = shifted
        self._seq = seq
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
