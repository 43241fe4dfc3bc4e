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
adds no transformation in between (verified by ``benchmarks/test_runtime``).

Batch reuse. A plan is a static periodic schedule and every batch runs
on a fresh machine, so a batch's trace depends only on the plan, the
active machine, the active fault model, the sim mode and ``N``. The
session keeps the trace of the last successful batch of each size and
serves a repeated ``run(N)`` from it instead of simulating again. The
table belongs to one plan: it is dropped on failover, on
:meth:`InferenceSession.swap_graph` and whenever :meth:`compile`
installs a different plan object.

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
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Optional, Union

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
from repro.runtime.plan_cache import PlanCache, plan_key_for
from repro.sim.executor import ExecutionTrace, PeFaultError, ScheduleExecutor
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
        allocator: allocator spec -- a registry name (``dp`` by default)
            or a budgeted spec such as ``anneal:5000``; budgeted specs are
            normalized to ``name:budget`` form so the plan-cache key
            includes the search budget.
        kernel_order: kernel packing order knob (ablation); an unknown
            order raises :class:`~repro.compiler.PipelineConfigError`.
        liveness_aware: liveness-corrected allocation pass.
        cache: optional :class:`PlanCache`; when provided, compilation is
            ``get_or_compile`` against the content-addressed key, so a
            second session for the same (graph, machine, knobs) tuple is a
            pure lookup.
        num_vaults: eDRAM vault count handed to the executor.
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
        num_vaults: int = 32,
        verify: bool = False,
        metrics: Optional["MetricsRegistry"] = None,
        sim_mode: Union[str, SimMode] = SimMode.STEADY_STATE,
        fault_model: Optional[FaultModel] = None,
        max_retries: int = 3,
        retry_backoff_seconds: float = 0.0,
        sleep: Optional[Callable[[float], None]] = None,
    ):
        from repro.core.allocation import canonical_allocator_spec

        # Validates the spec (UnknownAllocatorError is a ValueError) and
        # normalizes budgeted allocators to ``name:budget`` so two sessions
        # with different search budgets never share a plan-cache entry.
        allocator = canonical_allocator_spec(allocator)
        check_kernel_order(kernel_order)
        if num_vaults < 1:
            raise ValueError(f"num_vaults must be >= 1, got {num_vaults}")
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
        self.num_vaults = num_vaults
        self.verify = verify
        self.metrics = metrics
        self.sim_mode = SimMode.from_name(sim_mode)
        self.max_retries = max_retries
        self.retry_backoff_seconds = retry_backoff_seconds
        self._sleep = sleep if sleep is not None else time.sleep
        # --- fault-tolerance state: the *active* machine starts as the
        # nominal one and shrinks with every failover. ---------------------
        self._active_config: PimConfig = config
        self._active_num_vaults: int = num_vaults
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
        #: batches served from a stored trace instead of the simulator.
        self.batches_reused: int = 0
        self._plan: Optional[ParaConvResult] = None
        self._executor: Optional[ScheduleExecutor] = None
        # Trace of the last successful batch of each size, valid for
        # ``_traces_plan`` on the active machine and fault model.
        self._traces: Dict[int, ExecutionTrace] = {}
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
    def active_num_vaults(self) -> int:
        """Vault count of the machine currently being served."""
        return self._active_num_vaults

    @property
    def degraded_mode(self) -> bool:
        """True once this session serves a reduced machine."""
        return (
            self._active_config.is_degraded
            or self._active_num_vaults != self.num_vaults
        )

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
        dead_pes = {p for p in model.failed_pes if p < self._active_config.num_pes}
        dead_vaults = {v for v in model.failed_vaults if v < self._active_num_vaults}
        surviving_pes = [
            p for p in range(self._active_config.num_pes) if p not in dead_pes
        ]
        surviving_vaults = [
            v for v in range(self._active_num_vaults) if v not in dead_vaults
        ]
        if dead_pes or dead_vaults:
            self._active_config = self._active_config.degraded(
                surviving_pes, surviving_vaults if dead_vaults else None
            )
            self._active_num_vaults = len(surviving_vaults)
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
            surviving_vaults = list(range(self._active_num_vaults))
            if not surviving_pes:
                raise FaultRetryExhausted(
                    self.graph.name, self.failovers + 1, self.max_retries, fault
                ) from fault
            self._active_config = self._active_config.degraded(surviving_pes)
        else:
            surviving_pes = list(range(self._active_config.num_pes))
            surviving_vaults = [
                v for v in range(self._active_num_vaults)
                if v != fault.unit_id
            ]
            if not surviving_vaults:
                raise FaultRetryExhausted(
                    self.graph.name, self.failovers + 1, self.max_retries, fault
                ) from fault
            self._active_config = self._active_config.degraded(
                surviving_pes, surviving_vaults
            )
            self._active_num_vaults = len(surviving_vaults)
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
            self._plan = self.cache.get_or_compile(key, self.graph, _compile)
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
        ``wall_seconds`` is this call's own, ``failovers`` is 0). The
        stored traces are dropped on failover, on :meth:`swap_graph` and
        when :meth:`compile` installs a different plan.

        Under a fault model, a :class:`~repro.sim.executor.PeFaultError`
        mid-batch triggers failover: degrade, recompile (cache-first),
        replay the whole batch on the surviving machine. At most
        ``max_retries`` failovers are attempted per call; beyond that the
        batch fails with :class:`FaultRetryExhausted`.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        started = time.perf_counter()
        # The table only holds traces of the served plan: compile()
        # clears it when it installs another plan, and failover and
        # swap_graph clear it when they drop theirs.
        trace = self._traces.get(iterations)
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
                    self._active_config,
                    num_vaults=self._active_num_vaults,
                    mode=self.sim_mode,
                )
            try:
                # Serving needs aggregates only: a NullSink keeps
                # per-instance records out of memory no matter how large
                # the batch is.
                trace = self._executor.execute(
                    plan,
                    iterations=iterations,
                    sink=NullSink(),
                    fault_model=self._active_fault_model,
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
            self.last_trace = trace
            self._traces[iterations] = trace
            return self._batch_result(
                trace,
                energy_model,
                wall,
                failovers=attempts,
                degraded=self.degraded_mode,
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
                f"{self._active_num_vaults} vaults, "
                f"{self.failovers} failovers]"
            )
        return line


def direct_batch(
    graph: TaskGraph,
    config: PimConfig,
    iterations: int,
    allocator: str = "dp",
    num_vaults: int = 32,
    energy_model: Optional[EnergyModel] = None,
    sim_mode: Union[str, SimMode] = SimMode.FULL_UNROLL,
) -> BatchResult:
    """The uncached reference path: plan, execute, report.

    Exists so tests (and users migrating from the one-shot pipeline) can
    compare the session path against a from-scratch run with identical
    semantics. Defaults to the full-unroll mode precisely because it is
    the reference: comparing a steady-state session batch against a
    full-unroll direct batch exercises the fast-forward equivalence
    guarantee end to end.
    """
    result = ParaConv(config, allocator_name=allocator).run(graph)
    started = time.perf_counter()
    trace = ScheduleExecutor(
        config, num_vaults=num_vaults, mode=SimMode.from_name(sim_mode)
    ).execute(result, iterations=iterations, sink=NullSink())
    wall = time.perf_counter() - started
    return InferenceSession._batch_result(trace, energy_model, wall)
