"""Compile-once inference sessions.

An :class:`InferenceSession` binds one workload to one machine, pays the
planning cost (retiming analysis + DP allocation + width search) exactly
once — or not at all when the plan cache already holds the plan — and then
serves arbitrary-``N`` steady-state batches through the discrete-event
executor. This is the paper's cost model made operational: the prologue
``R_max * p`` is a per-*deployment* cost, the per-batch marginal cost is
``ceil(N / num_groups) * p``, so a session amortizes compilation and
prologue across every request it serves.

The session path is bit-identical to the direct
``ParaConv(...).run(graph)`` + ``ScheduleExecutor(...).execute(...)``
path: both the planner and the executor are deterministic, and the session
adds no transformation in between (``tests/runtime/test_session.py``
checks it).

Batch reuse. A plan is a static periodic schedule and every batch runs
on a fresh machine, so a batch's trace depends only on the plan, the
active machine, the active fault model, the sim mode and ``N``. A batch
of an ``N`` served before is built from its stored trace
(``batches_reused``). Every other steady-state batch is handed the plan's
store of round states (:class:`~repro.sim.executor.RunStates`), and the
executor starts from the latest state it holds for ``N``:

1. the converged boundary, when it covers ``N``: the executor splices
   the converged state forward and simulates only the remainder and the
   epilogue, or nothing when another ``N`` of the same remainder did it
   before (``batches_resumed``);
2. else the latest prefix state at or below round ``N``. Earlier steady
   runs of the plan export them at sparse round boundaries before their
   detector finds a period, and the state at round ``r`` is the same for
   every ``N >= r``, so the executor simulates only the rounds after it
   (``prefix_resumes``);
3. else round one.

The run returns the store extended by the states it exported, and the
session stores it with the batch's trace (``converged_simulations``
counts the runs that converged). A store keeps the first boundary a run
exported. So a converged plan is simulated from round one once per
machine, whatever sizes its batches have, and every batch of a plan that
has not converged starts from the longest run so far that reached its
``N``. Only batches that finished without a fault are stored. With a plan
cache, traces go into the cache's table under ``(plan digest, active
machine, sim mode, active fault model, N)`` and the store under the same
key without ``N``; caches opened from one
:class:`~repro.fleet.store.SharedPlanStore` share that table, so a batch
is simulated once per fleet, not once per shard. Without a cache the
session keeps a private table keyed by ``N`` (the store under ``None``)
that belongs to one plan: it is dropped on failover, on
:meth:`InferenceSession.swap_graph` and whenever :meth:`compile` installs
a different plan object. Every table is a
:class:`~repro.runtime.plan_cache.TraceTable`, which evicts its least
recently used entry past ``BATCH_TRACE_CAPACITY``; an evicted batch is
resumed or simulated again, and an evicted store is rebuilt by the runs
that follow. The store carries the static tables of the plan's last run,
and the session's executor keeps the ones of the plan it serves, so the
runs of a plan build them once, and again only for an ``N`` too wide for
their key layout; the executor is dropped with the plan on failover and
:meth:`InferenceSession.swap_graph`.

Fault tolerance. A session constructed with a
:class:`~repro.pim.faults.FaultModel` keeps serving when units die: the
executor raises :class:`~repro.sim.executor.PeFaultError` the moment
scheduled work hits a dead PE or vault, and the session *fails over* —
it degrades the active machine to the survivors
(:meth:`PimConfig.degraded`), recompiles against the degraded config
(through the plan cache, so a repeat of the same fault pattern is a pure
lookup), compacts the fault model into the survivor id space, and replays
the whole batch from iteration zero on the degraded machine. Replaying
from scratch — rather than splicing partial pre-fault work — is what
makes the recovery *exactly* equivalent to a cold compile on the degraded
configuration (the ``repro.verify`` fault differential pins this).
``max_retries`` bounds the number of failovers per batch; exhausting it
raises :class:`FaultRetryExhausted`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, Optional, Tuple, Union

from repro.compiler.pipeline import check_kernel_order
from repro.core.paraconv import ParaConv, ParaConvResult

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for annotations
    from repro.compiler.pipeline import CompileStats
    from repro.runtime.metrics import MetricsRegistry
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.energy import EnergyModel, EnergyReport
from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.pim.stats import TrafficStats
from repro.runtime.plan_cache import PlanCache, TraceTable, plan_key_for
from repro.sim.executor import (
    ExecutionTrace,
    PeFaultError,
    RunStates,
    ScheduleExecutor,
)
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink


class FaultRetryExhausted(RuntimeError):
    """A batch kept hitting faults until the failover budget ran out.

    Carries the retry accounting plus the last fault so callers (the
    batching server, operators' logs) can tell *why* serving gave up.
    """

    def __init__(
        self, workload: str, attempts: int, max_retries: int,
        last_fault: PeFaultError,
    ):
        self.workload = workload
        self.attempts = attempts
        self.max_retries = max_retries
        self.last_fault = last_fault
        super().__init__(
            f"batch for {workload!r} failed {attempts} times "
            f"(max_retries={max_retries}); last fault: {last_fault}"
        )


@dataclass(frozen=True)
class BatchResult:
    """Outcome of one steady-state batch run through a session.

    Carries exactly the quantities the acceptance comparison pins against
    the direct pipeline: makespans, traffic counters and the energy
    breakdown, plus the serving-relevant derived rates.
    """

    iterations: int
    analytic_makespan: int
    realized_makespan: int
    stats: TrafficStats
    energy: EnergyReport
    cache_spills: int
    max_lateness: int
    wall_seconds: float
    #: simulation mode used for this batch (``"full"`` or ``"steady"``).
    sim_mode: str = SimMode.STEADY_STATE.value
    #: round at which the steady-state mode converged (None: never, or
    #: the batch ran as a full unroll).
    converged_round: Optional[int] = None
    #: rounds the engine skipped via the O(1) fast-forward splice.
    rounds_fast_forwarded: int = 0
    #: failovers it took to finish this batch (0 on a healthy machine).
    failovers: int = 0
    #: True when the batch was served by a degraded (post-failover or
    #: statically masked) machine.
    degraded: bool = False

    @property
    def sim_throughput(self) -> float:
        """Inferences per simulated time unit."""
        if self.realized_makespan == 0:
            return 0.0
        return self.iterations / self.realized_makespan

    @property
    def wall_throughput(self) -> float:
        """Inferences per wall-clock second of simulation."""
        if self.wall_seconds == 0.0:
            return 0.0
        return self.iterations / self.wall_seconds


class InferenceSession:
    """Compile a plan once, then serve steady-state batches from it.

    Args:
        graph: the workload's task graph.
        config: machine description; its ``iterations`` field only affects
            the width search's objective (as in the one-shot pipeline).
        allocator: allocator registry name (``dp`` by default); an
            unknown name raises
            :class:`~repro.core.allocation.UnknownAllocatorError`.
        kernel_order: kernel packing order knob (ablation); an unknown
            order raises :class:`~repro.compiler.PipelineConfigError`.
        liveness_aware: liveness-corrected allocation pass.
        cache: optional :class:`PlanCache`; when provided, compilation is
            ``get_or_compile`` against the content-addressed key, so a
            second session for the same (graph, machine, knobs) tuple is a
            pure lookup.
        verify: when true, every plan this session compiles (or loads from
            the cache) is pushed through the
            :class:`~repro.verify.validator.ScheduleValidator` before it is
            ever served; a plan with invariant errors raises
            :class:`~repro.verify.violations.VerificationError` instead of
            silently producing wrong latencies.
        metrics: optional :class:`~repro.runtime.metrics.MetricsRegistry`;
            when provided, every *actual* compile records its per-pass
            wall-time breakdown and width-search counters
            (``compile.pass.<name>.seconds``, ``compile.widths_explored``,
            ``compile.widths_pruned``) into the registry. Cache hits record
            nothing — no compilation happened.
        sim_mode: simulation mode of the serving path; both modes run
            on the one executor engine. ``SimMode.STEADY_STATE`` (the
            default) fingerprints the machine at round boundaries and
            fast-forwards converged rounds in O(1), so large-``N``
            batches cost roughly the transient; ``SimMode.FULL_UNROLL``
            is the event-by-event oracle. Both produce identical
            aggregate results (the acceptance tests pin this), so serving
            defaults to the fast-forwarding mode.
        fault_model: optional :class:`~repro.pim.faults.FaultModel`.
            Static masks degrade the machine *before* the first compile
            (no wasted healthy-machine plan); timed events strike during
            :meth:`run` and trigger failover.
        max_retries: failovers allowed per :meth:`run` call before
            :class:`FaultRetryExhausted` is raised.
        retry_backoff_seconds: base sleep between failover attempts
            (linear backoff: ``base * attempt``); 0 disables sleeping.
        sleep: injectable sleep function (tests pass a recorder).
    """

    def __init__(
        self,
        graph: TaskGraph,
        config: PimConfig,
        allocator: str = "dp",
        kernel_order: str = "topological",
        liveness_aware: bool = False,
        cache: Optional[PlanCache] = None,
        verify: bool = False,
        metrics: Optional["MetricsRegistry"] = None,
        sim_mode: Union[str, SimMode] = SimMode.STEADY_STATE,
        fault_model: Optional[FaultModel] = None,
        max_retries: int = 3,
        retry_backoff_seconds: float = 0.0,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        from repro.core.allocation import allocator_from_spec

        # UnknownAllocatorError is a ValueError.
        allocator_from_spec(allocator)
        check_kernel_order(kernel_order)
        if max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {max_retries}")
        if retry_backoff_seconds < 0:
            raise ValueError(
                f"retry_backoff_seconds must be >= 0, got {retry_backoff_seconds}"
            )
        self.graph = graph
        self.config = config
        self.allocator = allocator
        self.kernel_order = kernel_order
        self.liveness_aware = liveness_aware
        self.cache = cache
        self.verify = verify
        self.metrics = metrics
        self.sim_mode = SimMode.from_name(sim_mode)
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self._sleep = sleep if sleep is not None else time.sleep
        # --- fault-tolerance state: the *active* machine starts as the
        # nominal one and shrinks with every failover. ---------------------
        self._active_config: PimConfig = config
        self._active_fault_model: Optional[FaultModel] = (
            fault_model
            if fault_model is not None and not fault_model.is_trivial
            else None
        )
        #: total faults this session observed (across all run() calls).
        self.faults_observed: int = 0
        #: failovers that required an actual (cache-missing) recompile.
        self.failover_recompiles: int = 0
        #: total failovers performed (cache hits included).
        self.failovers: int = 0
        #: live rewirings performed via :meth:`swap_graph`.
        self.graph_swaps: int = 0
        #: swaps that required an actual (cache-missing) recompile; a
        #: repeat swap to a previously served graph stays flat.
        self.swap_recompiles: int = 0
        #: the trace of the last successful batch (None before the first).
        self.last_trace: Optional[ExecutionTrace] = None
        #: batches served from a stored trace of the same ``N`` instead of
        #: the simulator.
        self.batches_reused: int = 0
        #: batches resumed from the stored steady-state boundary of another
        #: ``N`` instead of simulated from round one.
        self.batches_resumed: int = 0
        #: batches simulated from a stored prefix state of a shorter or
        #: equal round instead of from round one.
        self.prefix_resumes: int = 0
        #: batches simulated (from round one or from a prefix state) whose
        #: steady state converged.
        self.converged_simulations: int = 0
        self._plan: Optional[ParaConvResult] = None
        #: cache key digest of ``_plan`` (set only when compiling through
        #: a cache).
        self._plan_digest: Optional[str] = None
        self._executor: Optional[ScheduleExecutor] = None
        # Without a cache: trace of the last successful batch of each
        # size, valid for ``_traces_plan`` on the active machine and
        # fault model.
        self._traces: "TraceTable[int, ExecutionTrace]" = TraceTable()
        self._traces_plan: Optional[ParaConvResult] = None
        if self._active_fault_model is not None and (
            self._active_fault_model.failed_pes
            or self._active_fault_model.failed_vaults
        ):
            self._apply_static_masks()
        #: wall seconds the last :meth:`compile` call took (0 for a pure
        #: memory hit, which still goes through the cache's accounting).
        self.last_compile_seconds: float = 0.0
        #: number of times this session actually ran the planner.
        self.compilations: int = 0
        #: :class:`~repro.compiler.pipeline.CompileStats` from the last
        #: compile this session *performed* (``None`` after a cache hit or
        #: before the first compile).
        self.last_compile_stats: Optional["CompileStats"] = None

    # ------------------------------------------------------------------
    # fault tolerance
    # ------------------------------------------------------------------
    @property
    def active_config(self) -> PimConfig:
        """The machine currently being served (shrinks across failovers)."""
        return self._active_config

    @property
    def degraded_mode(self) -> bool:
        """True once this session serves a reduced machine."""
        return self._active_config.is_degraded

    def _metric_inc(self, name: str, amount: int = 1) -> None:
        if self.metrics is not None:
            self.metrics.counter(name).inc(amount)

    def _publish_degraded_gauge(self) -> None:
        if self.metrics is not None:
            self.metrics.gauge("degraded_mode").set(
                1.0 if self.degraded_mode else 0.0
            )

    def _apply_static_masks(self) -> None:
        """Degrade *before* the first compile for statically dead units.

        Units the fault model marks dead at t=0 would fault in round one
        anyway; folding them in up front avoids compiling (and caching) a
        doomed healthy-machine plan. Mask ids outside the machine are
        ignored — the unit does not exist, so it cannot die.
        """
        assert self._active_fault_model is not None
        model = self._active_fault_model
        machine = self._active_config
        dead_pes = {p for p in model.failed_pes if p < machine.num_pes}
        dead_vaults = {v for v in model.failed_vaults if v < machine.num_vaults}
        surviving_pes = [p for p in range(machine.num_pes) if p not in dead_pes]
        surviving_vaults = [
            v for v in range(machine.num_vaults) if v not in dead_vaults
        ]
        if dead_pes or dead_vaults:
            self._active_config = machine.degraded(
                surviving_pes, surviving_vaults if dead_vaults else None
            )
        model = model.compacted(surviving_pes, surviving_vaults)
        self._active_fault_model = model if not model.is_trivial else None
        self._publish_degraded_gauge()

    def _fail_over(self, fault: PeFaultError) -> None:
        """React to one fault: degrade, compact, recompile-or-load.

        The dead unit id is in the *active* machine's logical space;
        :meth:`PimConfig.degraded` composes it through any existing mask,
        and :meth:`FaultModel.compacted` renumbers the remaining fault
        trace so a second failure still strikes the replayed run.
        """
        if fault.unit == FAULT_UNIT_PE:
            surviving_pes = [
                p for p in range(self._active_config.num_pes)
                if p != fault.unit_id
            ]
            surviving_vaults = list(range(self._active_config.num_vaults))
            if not surviving_pes:
                raise FaultRetryExhausted(
                    self.graph.name, self.failovers + 1, self.max_retries, fault
                ) from fault
            self._active_config = self._active_config.degraded(surviving_pes)
        else:
            surviving_pes = list(range(self._active_config.num_pes))
            surviving_vaults = [
                v for v in range(self._active_config.num_vaults)
                if v != fault.unit_id
            ]
            if not surviving_vaults:
                raise FaultRetryExhausted(
                    self.graph.name, self.failovers + 1, self.max_retries, fault
                ) from fault
            self._active_config = self._active_config.degraded(
                surviving_pes, surviving_vaults
            )
        if self._active_fault_model is not None:
            model = self._active_fault_model.compacted(
                surviving_pes, surviving_vaults
            )
            self._active_fault_model = model if not model.is_trivial else None
        # Recompile against the degraded machine. The plan cache keys on
        # the config fingerprint — which now embeds the surviving-unit
        # mask — so a repeat of the same fault pattern is a warm lookup
        # and failover_recompiles stays flat.
        self._plan = None
        self._executor = None
        self._traces.clear()
        compiles_before = self.compilations
        self.compile()
        self.failovers += 1
        if self.compilations != compiles_before:
            self.failover_recompiles += 1
            self._metric_inc("failover_recompiles")
        self._publish_degraded_gauge()

    def arm_fault(self, fault_model: FaultModel) -> None:
        """Strike ``fault_model``'s timed events on the following batches.

        Unit ids are in the active machine's space, and the model replaces
        any fault still armed: a live session meets a unit failure exactly
        as one constructed with the model would. Units the model marks
        dead from the start degrade the machine now, as at construction,
        so the next batch compiles for the survivors instead of failing
        over. The private trace table is keyed by ``N`` alone, so its
        healthy traces are dropped.
        """
        self._active_fault_model = (
            None if fault_model.is_trivial else fault_model
        )
        self._traces.clear()
        if fault_model.failed_pes or fault_model.failed_vaults:
            self._plan = None
            self._executor = None
            self._apply_static_masks()

    # ------------------------------------------------------------------
    # live rewiring
    # ------------------------------------------------------------------
    def swap_graph(self, new_graph: TaskGraph) -> ParaConvResult:
        """Hot-swap the served workload's graph and recompile in place.

        This is the failover path with a non-fault trigger: the session
        keeps its machine, cache, knobs and counters, drops the active
        plan/executor pair, and recompiles *through the plan cache* for
        the new graph. The plan key embeds the graph fingerprint, so a
        swap back to a previously served graph — or a repeat swap to the
        same one — is a pure warm lookup (``swap_recompiles`` stays
        flat), exactly like a repeated fault pattern.

        The new graph is validated before anything is torn down, so an
        illegal graph leaves the session serving the old plan untouched.
        Returns the plan now being served.
        """
        new_graph.validate()
        self.graph = new_graph
        self._plan = None
        self._executor = None
        self._traces.clear()
        compiles_before = self.compilations
        plan = self.compile()
        self.graph_swaps += 1
        self._metric_inc("graph_swaps")
        if self.compilations != compiles_before:
            self.swap_recompiles += 1
            self._metric_inc("swap_recompiles")
        return plan

    # ------------------------------------------------------------------
    # compilation
    # ------------------------------------------------------------------
    @property
    def plan(self) -> ParaConvResult:
        """The compiled plan; first access triggers :meth:`compile`."""
        if self._plan is None:
            self.compile()
        assert self._plan is not None
        return self._plan

    @property
    def is_compiled(self) -> bool:
        return self._plan is not None

    @property
    def plan_digest(self) -> Optional[str]:
        """Plan-cache key digest of the served plan (None without a cache
        or before the first compile)."""
        return self._plan_digest

    def _build_pipeline(self) -> ParaConv:
        return ParaConv(
            self._active_config,
            allocator_name=self.allocator,
            kernel_order=self.kernel_order,
            liveness_aware=self.liveness_aware,
        )

    def compile(self, force: bool = False) -> ParaConvResult:
        """Plan (or cache-load) the schedule; idempotent unless ``force``."""
        if self._plan is not None and not force:
            return self._plan
        started = time.perf_counter()
        if self.cache is not None:
            key = plan_key_for(
                self.graph,
                self._active_config,
                allocator=self.allocator,
                kernel_order=self.kernel_order,
                liveness_aware=self.liveness_aware,
            )

            def _compile() -> ParaConvResult:
                self.compilations += 1
                plan = self._build_pipeline().run(self.graph)
                self._record_compile(plan)
                return plan

            self.last_compile_stats = None
            plan = self.cache.get_or_compile(key, self.graph, _compile)
            if plan.graph is not self.graph:
                # A hit compiled for another session's graph: the cache
                # checked that the fingerprints are equal, so only the
                # object (and the name, which is outside the fingerprint)
                # differs. Serve the plan on this session's own graph.
                plan = replace(plan, graph=self.graph)
            self._plan = plan
            self._plan_digest = key.digest
        else:
            self.compilations += 1
            self.last_compile_stats = None
            self._plan = self._build_pipeline().run(self.graph)
            self._record_compile(self._plan)
        if self.verify:
            self._verify_plan(self._plan)
        if self._plan is not self._traces_plan:
            self._traces.clear()
            self._traces_plan = self._plan
        self.last_compile_seconds = time.perf_counter() - started
        return self._plan

    def _record_compile(self, plan: ParaConvResult) -> None:
        """Stash + publish the per-pass breakdown of a real compile."""
        self.last_compile_stats = plan.compile_stats
        if self.metrics is not None:
            self.metrics.record_compile_stats(plan.compile_stats)

    def _verify_plan(self, plan: ParaConvResult) -> None:
        """Gate a freshly compiled/loaded plan on the paper's invariants."""
        # Imported lazily: the serving path must not pay for the verifier
        # (or depend on it) unless verification was requested.
        from repro.verify.validator import ScheduleValidator

        report = ScheduleValidator().validate(plan)
        report.raise_if_failed()

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def run(
        self,
        iterations: int,
        energy_model: Optional[EnergyModel] = None,
    ) -> BatchResult:
        """Execute one batch of ``iterations`` inferences on the plan.

        Re-uses the compiled plan (and the executor object) across calls:
        no re-planning, no re-validation — only the discrete-event
        execution itself, on a fresh machine, exactly like the direct
        executor path. A repeated ``iterations`` on the same plan skips
        even that: the batch is built from the stored trace of the last
        successful batch of that size (``batches_reused`` counts these;
        ``wall_seconds`` is this call's own, ``failovers`` is 0). Any
        other steady batch is handed the plan's store of round states and
        starts from its boundary when that covers ``iterations``
        (``batches_resumed``), else from its latest prefix state at or
        below round ``iterations`` (``prefix_resumes``). With a cache the
        trace or store may come from any session on the cache's table
        (see :meth:`_trace_slot`); without one, they are dropped on
        failover, on :meth:`swap_graph` and when :meth:`compile` installs
        a different plan.

        Under a fault model, a :class:`~repro.sim.executor.PeFaultError`
        mid-batch triggers failover: degrade, recompile (cache-first),
        replay the whole batch on the surviving machine. At most
        ``max_retries`` failovers are attempted per call; beyond that the
        batch fails with :class:`FaultRetryExhausted`.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        started = time.perf_counter()
        table, key = self._trace_slot(iterations)
        trace = table.get(key)
        if trace is not None:
            self.batches_reused += 1
            self.last_trace = trace
            return self._batch_result(
                trace,
                energy_model,
                time.perf_counter() - started,
                degraded=self.degraded_mode,
            )
        attempts = 0
        while True:
            plan = self.plan
            if self._executor is None:
                self._executor = ScheduleExecutor(
                    self._active_config, mode=self.sim_mode
                )
            states = None
            if self.sim_mode is SimMode.STEADY_STATE:
                table, key = self._trace_slot(None)
                states = table.get(key, RunStates())
            try:
                # Serving needs aggregates only: a NullSink keeps
                # per-instance records out of memory no matter how large
                # the batch is.
                trace = self._executor.execute(
                    plan,
                    iterations=iterations,
                    sink=NullSink(),
                    fault_model=self._active_fault_model,
                    states=states,
                )
            except PeFaultError as fault:
                attempts += 1
                self.faults_observed += 1
                self._metric_inc("faults_observed")
                if attempts > self.max_retries:
                    raise FaultRetryExhausted(
                        self.graph.name, attempts, self.max_retries, fault
                    ) from fault
                self._fail_over(fault)
                if self.retry_backoff_seconds > 0.0:
                    self._sleep(self.retry_backoff_seconds * attempts)
                continue
            wall = time.perf_counter() - started
            if states is not None and states.boundary is not None and (
                states.boundary.covers(iterations)
            ):
                self.batches_resumed += 1
            else:
                if states is not None and states.latest(iterations) is not None:
                    self.prefix_resumes += 1
                if trace.converged_round is not None:
                    self.converged_simulations += 1
            self.last_trace = trace
            # Keyed after any failover: the machine the trace ran on.
            table, key = self._trace_slot(iterations)
            table[key] = trace
            if trace.states is not None:
                table, key = self._trace_slot(None)
                table[key] = trace.states
            return self._batch_result(
                trace,
                energy_model,
                wall,
                failovers=attempts,
                degraded=self.degraded_mode,
            )

    def _trace_slot(
        self, iterations: Optional[int]
    ) -> Tuple[TraceTable, object]:
        """Table and key of a batch of ``iterations`` on the served plan;
        ``None`` names the slot of the plan's store of round states.

        With a cache: the cache's table, keyed by everything the trace
        depends on. The plan digest alone is not enough, because
        :meth:`PimConfig.fingerprint` leaves out ``num_vaults``. Without
        one: this session's table, keyed by ``N``. It only holds traces
        of the served plan: :meth:`compile` clears it when it installs
        another plan, and failover and :meth:`swap_graph` clear it when
        they drop theirs.
        """
        if self.cache is None:
            return self._traces, iterations
        if self._plan is None:
            self.compile()
        key = (
            self.plan_digest,
            self._active_config,
            self.sim_mode,
            self._active_fault_model,
        )
        return self.cache.batch_traces, (
            key if iterations is None else (*key, iterations)
        )

    @staticmethod
    def _batch_result(
        trace: ExecutionTrace,
        energy_model: Optional[EnergyModel],
        wall_seconds: float,
        failovers: int = 0,
        degraded: bool = False,
    ) -> BatchResult:
        return BatchResult(
            iterations=trace.iterations,
            analytic_makespan=trace.analytic_makespan,
            realized_makespan=trace.realized_makespan,
            stats=trace.stats,
            energy=trace.energy(energy_model),
            cache_spills=trace.cache_spills,
            max_lateness=trace.max_lateness,
            wall_seconds=wall_seconds,
            sim_mode=trace.sim_mode.value,
            converged_round=trace.converged_round,
            rounds_fast_forwarded=trace.rounds_fast_forwarded,
            failovers=failovers,
            degraded=degraded,
        )

    # ------------------------------------------------------------------
    # analytics
    # ------------------------------------------------------------------
    def total_time(self, iterations: int) -> int:
        """Analytic ``R_max*p + ceil(N/J)*p`` for a batch of ``N``."""
        return self.plan.total_time(iterations)

    def explain_compile(self) -> str:
        """Per-pass timing table for the last compile this session ran.

        Mirrors ``python -m repro ... --explain`` for the serving path.
        Returns a placeholder line when the plan came from the cache (or
        from disk) and therefore carries no compile stats.
        """
        if self.last_compile_stats is None:
            return "(no compile stats: plan served from cache)"
        return self.last_compile_stats.explain()

    def summary(self) -> str:
        plan = self.plan
        state = "cached" if self.compilations == 0 else "compiled"
        line = (
            f"InferenceSession({self.graph.name!r}, {self.config.num_pes} PEs, "
            f"allocator={self.allocator!r}): plan {state} in "
            f"{self.last_compile_seconds * 1e3:.2f} ms, period {plan.period}, "
            f"R_max {plan.max_retiming}, groups {plan.num_groups} x "
            f"{plan.group_width} PEs"
        )
        if self.degraded_mode:
            line += (
                f" [degraded: {self._active_config.num_pes} PEs, "
                f"{self._active_config.num_vaults} vaults, "
                f"{self.failovers} failovers]"
            )
        return line

