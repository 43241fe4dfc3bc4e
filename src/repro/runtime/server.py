"""Batching request scheduler with bounded-queue backpressure.

Design: a *synchronous core*. The server is a deterministic state machine
— ``submit()`` either admits a request into the bounded queue or raises
:class:`QueueFullError`; ``step()`` forms one batch and runs it;
``drain()`` loops ``step()`` until the queue is empty. There are no
threads and no waiting inside the core, which makes every scheduling
decision unit-testable and reproducible. Wall-clock timing comes from an
injectable ``clock`` so tests can drive virtual time.

Batching policy (the PIMfused observation: steady-state scheduling, not
per-request planning, dominates throughput): ``step()`` picks the oldest
queued request and coalesces every other queued request for the *same
plan* (same workload fingerprint + knobs) up to ``batch_window`` requests
into one simulated steady-state batch. The prologue ``R_max * p`` is paid
once per batch and attributed to the batch, not multiplied per request —
exactly the paper's ``R_max*p + N*p`` amortization.

Per-request latency has two clocks:

* *simulated* latency — time units from batch start until the request's
  last iteration completes inside the simulated machine (FIFO order
  within a batch), and
* *wall* latency — seconds from ``submit()`` until its batch finished
  executing on this host.
"""

from __future__ import annotations

import functools
import itertools
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Dict, List, NamedTuple, Optional

from repro.cnn.workloads import load_workload
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.faults import FaultModel
from repro.runtime.metrics import Counter, Gauge, MetricsRegistry
from repro.runtime.plan_cache import PlanCache
from repro.runtime.session import (
    BatchResult,
    FaultRetryExhausted,
    InferenceSession,
)
from repro.sim.modes import SimMode


class QueueFullError(RuntimeError):
    """Typed backpressure signal: the admission queue is at capacity.

    Carries enough context for a client to implement retry-with-backoff.
    """

    def __init__(self, capacity: int, workload: str):
        self.capacity = capacity
        self.workload = workload
        super().__init__(
            f"admission queue full ({capacity} requests); "
            f"rejecting request for {workload!r}"
        )


class InferenceRequest(NamedTuple):
    """One admitted inference request."""

    request_id: int
    workload: str
    iterations: int
    submit_wall: float


class RequestResult(NamedTuple):
    """Everything measured for one served request."""

    request: InferenceRequest
    batch_id: int
    batch_size: int
    #: simulated time units from batch start to this request's completion.
    sim_latency: int
    #: wall seconds from submit() to batch completion.
    wall_latency: float
    #: the batch-level measurements this request shared.
    batch: BatchResult


@dataclass
class _WorkloadState:
    """Per-workload session plus arrival bookkeeping."""

    session: InferenceSession
    queued: int = 0


#: legal ``cut_point`` values for :meth:`BatchingServer.rewire`.
REWIRE_CUT_POINTS = ("drain", "reroute")


@dataclass(frozen=True)
class RewireResult:
    """Outcome of one live :meth:`BatchingServer.rewire` call.

    The accounting closes by construction: every request queued for the
    workload at the cut-point is either in ``drained`` (served on the old
    plan before the swap) or counted in ``rerouted`` (left queued, served
    on the new plan) — nothing is dropped.
    """

    workload: str
    cut_point: str
    #: requests served on the *old* plan before the swap ("drain" only).
    drained: List[RequestResult]
    #: queued requests carried across the swap onto the *new* plan.
    rerouted: int
    #: True when the swap needed an actual compile (cold new graph);
    #: False means the new plan came warm from the cache.
    recompiled: bool
    old_period: Optional[int]
    new_period: int

    @property
    def drained_requests(self) -> int:
        return len(self.drained)


class BatchingServer:
    """Deterministic single-host serving core over the plan cache.

    Args:
        config: machine every request is served on.
        cache: shared plan cache (a fresh private one when omitted).
        max_queue: admission-queue bound; beyond it ``submit`` raises
            :class:`QueueFullError` instead of blocking — bounded memory
            and no deadlock under overload, the caller owns retry policy.
        batch_window: maximum requests coalesced into one simulated batch.
        allocator: allocator registry name for plan compilation.
        clock: wall-clock source (``time.perf_counter`` by default);
            injectable for deterministic tests.
        graph_loader: workload-name resolver (:func:`load_workload` by
            default); injectable so tests can serve synthetic graphs.
        sim_mode: simulation mode for every session this server
            creates (``steady`` by default — large batches cost roughly
            the transient; ``full`` forces the event-by-event oracle).
        fault_model: optional :class:`~repro.pim.faults.FaultModel`
            handed to every session — each batch replays the fault trace
            on a fresh simulated machine, and sessions fail over to
            degraded plans through the shared cache.
        max_retries: per-batch failover budget (see
            :class:`~repro.runtime.session.InferenceSession`).
        results_retention: bound on the retained :class:`RequestResult`
            history. The server keeps the newest ``results_retention``
            results for inspection and evicts the oldest beyond that
            (counted in the ``results_evicted`` metric); aggregate
            throughput figures are tracked separately and stay exact, so
            a long-running server's memory no longer grows per request.
    """

    def __init__(
        self,
        config: PimConfig,
        cache: Optional[PlanCache] = None,
        max_queue: int = 64,
        batch_window: int = 8,
        allocator: str = "dp",
        clock: Optional[Callable[[], float]] = None,
        graph_loader: Optional[Callable[[str], TaskGraph]] = None,
        sim_mode: "SimMode | str" = SimMode.STEADY_STATE,
        fault_model: Optional[FaultModel] = None,
        max_retries: int = 3,
        results_retention: int = 10_000,
    ):
        if max_queue < 1:
            raise ValueError("max_queue must be >= 1")
        if batch_window < 1:
            raise ValueError("batch_window must be >= 1")
        if results_retention < 1:
            raise ValueError("results_retention must be >= 1")
        self.config = config
        self.cache = cache if cache is not None else PlanCache()
        self.max_queue = max_queue
        self.batch_window = batch_window
        self.allocator = allocator
        self.clock = clock if clock is not None else time.perf_counter
        self.graph_loader = graph_loader if graph_loader is not None else load_workload
        self.sim_mode = SimMode.from_name(sim_mode)
        self.fault_model = fault_model
        self.max_retries = max_retries
        self.results_retention = results_retention
        self.metrics = MetricsRegistry()
        self._queue: Deque[InferenceRequest] = deque()
        self._sessions: Dict[str, _WorkloadState] = {}
        #: live-rewire overrides: workload name -> graph that replaces
        #: whatever ``graph_loader`` would resolve (set by :meth:`rewire`
        #: so sessions created *after* a rewire also serve the new graph).
        self._graph_overrides: Dict[str, TaskGraph] = {}
        self._ids = itertools.count(1)
        self._batches = itertools.count(1)
        self._results: Deque[RequestResult] = deque(maxlen=results_retention)
        #: exact aggregate wall time attributed to served requests, kept
        #: outside the bounded history so eviction never skews throughput.
        self._wall_seconds_served: float = 0.0

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._queue)

    def submit(self, workload: str, iterations: int = 1) -> InferenceRequest:
        """Admit one request or raise :class:`QueueFullError`.

        Invalid arguments are rejected *before* the queue-capacity check:
        a malformed request must raise ``ValueError`` (not masquerade as
        backpressure) and must never consume queue accounting.
        """
        if iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {iterations}")
        if len(self._queue) >= self.max_queue:
            self.metrics.counter("requests_rejected").inc()
            raise QueueFullError(self.max_queue, workload)
        request = InferenceRequest(
            next(self._ids), workload, iterations, self.clock()
        )
        self._queue.append(request)
        self._state_for(workload).queued += 1
        self._requests_accepted.inc()
        self._queue_depth.set(len(self._queue))
        return request

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def step(self) -> List[RequestResult]:
        """Serve one batch: coalesce, execute, time. No-op on empty queue."""
        if not self._queue:
            return []
        head = self._queue[0]
        batch: List[InferenceRequest] = []
        kept: Deque[InferenceRequest] = deque()
        # Oldest-first coalescing: take the head's workload, sweep the
        # queue in FIFO order for up to batch_window same-plan requests,
        # preserve everyone else's order.
        while self._queue:
            request = self._queue.popleft()
            if request.workload == head.workload and len(batch) < self.batch_window:
                batch.append(request)
            else:
                kept.append(request)
        self._queue = kept
        self._queue_depth.set(len(self._queue))
        return self._execute_batch(batch)

    def drain(self) -> List[RequestResult]:
        """Serve until the queue is empty; returns results in batch order."""
        results: List[RequestResult] = []
        while self._queue:
            results.extend(self.step())
        return results

    def queued_requests(self) -> List[InferenceRequest]:
        """The admitted-but-unserved requests, in FIFO order (a copy)."""
        return list(self._queue)

    def remove_queued(
        self,
        predicate: Optional[Callable[[InferenceRequest], bool]] = None,
    ) -> List[InferenceRequest]:
        """Remove (without serving) every queued request matching ``predicate``.

        With no predicate the whole queue is evicted. Queue-depth and
        per-workload accounting stay exact; the removed requests are
        returned in FIFO order so a caller can re-route them — this is
        the primitive the fleet tier uses to drain a dead shard's queue
        and to shed deadline-expired requests. Nothing is counted as
        served or failed here: disposition is the caller's decision.
        """
        removed: List[InferenceRequest] = []
        kept: Deque[InferenceRequest] = deque()
        for request in self._queue:
            if predicate is None or predicate(request):
                removed.append(request)
            else:
                kept.append(request)
        if removed:
            self._queue = kept
            for request in removed:
                self._state_for(request.workload).queued -= 1
            self._queue_depth.set(len(self._queue))
        return removed

    def sessions(self) -> Dict[str, InferenceSession]:
        """The per-workload sessions created so far (read-only view)."""
        return {name: state.session for name, state in self._sessions.items()}

    # ------------------------------------------------------------------
    # live rewiring
    # ------------------------------------------------------------------
    def rewire(
        self,
        workload: str,
        new_graph: TaskGraph,
        cut_point: str = "drain",
    ) -> RewireResult:
        """Hot-swap ``workload``'s graph mid-session; nothing is dropped.

        The cut-point declares what happens to requests already queued
        for the workload when the swap lands:

        * ``"drain"`` — queued requests are served on the *old* plan
          first (coalesced into batches exactly like :meth:`step`, other
          workloads' queue order preserved), then the plan is swapped.
        * ``"reroute"`` — queued requests stay queued across the swap
          and are served on the *new* plan; the swap is atomic from the
          queue's point of view.

        Either way the session is rewired through
        :meth:`InferenceSession.swap_graph` — the recompile-through-cache
        failover path with a non-fault trigger — so a repeat swap to a
        previously served graph is a warm lookup (``recompiled=False``),
        and future sessions for this workload name (e.g. after a server
        restart with the same ``graph_loader`` override map) compile the
        new graph. Accounting closes: every request queued at the
        cut-point ends up served (drained) or still queued (rerouted).
        """
        if cut_point not in REWIRE_CUT_POINTS:
            raise ValueError(
                f"cut_point must be one of {REWIRE_CUT_POINTS}, "
                f"got {cut_point!r}"
            )
        state = self._state_for(workload)
        old_period = (
            state.session.plan.period if state.session.is_compiled else None
        )
        drained: List[RequestResult] = []
        if cut_point == "drain":
            # Targeted step() loop: serve every queued request for this
            # workload on the old plan, batch_window at a time, without
            # disturbing other workloads' FIFO order.
            while state.queued > 0:
                batch: List[InferenceRequest] = []
                kept: Deque[InferenceRequest] = deque()
                while self._queue:
                    request = self._queue.popleft()
                    if (
                        request.workload == workload
                        and len(batch) < self.batch_window
                    ):
                        batch.append(request)
                    else:
                        kept.append(request)
                self._queue = kept
                self._queue_depth.set(len(self._queue))
                drained.extend(self._execute_batch(batch))
        rerouted = state.queued
        recompiles_before = state.session.swap_recompiles
        # swap_graph validates the new graph before tearing anything
        # down, so an illegal graph raises here and the override below
        # is never installed — loader state stays consistent.
        new_plan = state.session.swap_graph(new_graph)
        self._graph_overrides[workload] = new_graph
        recompiled = state.session.swap_recompiles != recompiles_before
        self.metrics.counter("graph_rewires").inc()
        return RewireResult(
            workload=workload,
            cut_point=cut_point,
            drained=drained,
            rerouted=rerouted,
            recompiled=recompiled,
            old_period=old_period,
            new_period=new_plan.period,
        )

    @property
    def results(self) -> List[RequestResult]:
        """Retained results in batch order (newest ``results_retention``).

        Older results are evicted once the bound is hit; the aggregate
        counters (``requests_served``, throughput) remain exact.
        """
        return list(self._results)

    def set_graph_override(self, workload: str, new_graph: TaskGraph) -> None:
        """Pin ``workload`` to ``new_graph`` without touching live sessions.

        The fleet router uses this on shards that have never served the
        workload: their *first* session must already compile the new
        graph, but there is nothing to swap or drain yet.
        """
        new_graph.validate()
        self._graph_overrides[workload] = new_graph

    # ------------------------------------------------------------------
    # internals
    # ------------------------------------------------------------------
    # The per-request instruments, looked up once: each is registered the
    # first time its path runs, so a snapshot lists only what was used.
    @functools.cached_property
    def _requests_accepted(self) -> Counter:
        return self.metrics.counter("requests_accepted")

    @functools.cached_property
    def _queue_depth(self) -> Gauge:
        return self.metrics.gauge("queue_depth")

    def _load_graph(self, workload: str) -> TaskGraph:
        """Resolve a workload name, honouring live-rewire overrides."""
        override = self._graph_overrides.get(workload)
        return override if override is not None else self.graph_loader(workload)

    def _state_for(self, workload: str) -> _WorkloadState:
        state = self._sessions.get(workload)
        if state is None:
            graph = self._load_graph(workload)
            state = _WorkloadState(
                session=InferenceSession(
                    graph,
                    self.config,
                    allocator=self.allocator,
                    cache=self.cache,
                    sim_mode=self.sim_mode,
                    metrics=self.metrics,
                    fault_model=self.fault_model,
                    max_retries=self.max_retries,
                )
            )
            self._sessions[workload] = state
        return state

    def _execute_batch(self, batch: List[InferenceRequest]) -> List[RequestResult]:
        state = self._state_for(batch[0].workload)
        state.queued -= len(batch)
        batch_id = next(self._batches)
        total_iterations = sum(r.iterations for r in batch)
        compile_was_needed = not state.session.is_compiled
        reused_before = state.session.batches_reused
        try:
            batch_result = state.session.run(total_iterations)
        except FaultRetryExhausted:
            # The batch could not be served within the failover budget.
            # Account for every request in it, then surface the typed
            # error — the caller owns give-up/retry policy, exactly like
            # QueueFullError on the admission side.
            self.metrics.counter("requests_failed").inc(len(batch))
            self.metrics.counter("batches_failed").inc()
            raise
        finished_wall = self.clock()
        if compile_was_needed:
            self.metrics.counter("plans_compiled_or_loaded").inc()
            self.metrics.histogram("compile_seconds").observe(
                state.session.last_compile_seconds
            )
        # FIFO attribution inside the batch: request k completes when its
        # last iteration does. Prologue + ceil(cumulative/J) * p, i.e. the
        # analytic completion prefix of the shared steady-state schedule
        # (``plan.total_time(cumulative)``, with the plan read once).
        plan = state.session.plan
        prologue = plan.prologue_time
        groups = plan.num_groups
        period = plan.period
        batch_size = len(batch)
        results: List[RequestResult] = []
        sim_latencies: List[int] = []
        wall_latencies: List[float] = []
        cumulative = 0
        for request in batch:
            cumulative += request.iterations
            sim_latency = prologue + -(-cumulative // groups) * period
            wall_latency = finished_wall - request.submit_wall
            results.append(
                RequestResult(
                    request, batch_id, batch_size, sim_latency,
                    wall_latency, batch_result,
                )
            )
            sim_latencies.append(sim_latency)
            wall_latencies.append(wall_latency)
        self.metrics.histogram("sim_latency_units").observe_many(sim_latencies)
        self.metrics.histogram("wall_latency_seconds").observe_many(
            wall_latencies
        )
        self.metrics.counter("batches_executed").inc()
        self.metrics.counter("requests_served").inc(len(batch))
        self.metrics.counter("inferences_served").inc(total_iterations)
        self.metrics.counter("sim_units_busy").inc(batch_result.realized_makespan)
        self.metrics.counter("cache_spills").inc(batch_result.cache_spills)
        # Steady-state engine observability: how much simulated work the
        # fingerprint fast-forward saved this server so far.
        if batch_result.rounds_fast_forwarded:
            self.metrics.counter("sim_rounds_fast_forwarded").inc(
                batch_result.rounds_fast_forwarded
            )
        if batch_result.converged_round is not None:
            self.metrics.counter("sim_batches_converged").inc()
        # Batches the session served from a stored trace of the same size;
        # the counters above describe the batch served either way.
        if state.session.batches_reused != reused_before:
            self.metrics.counter("sim_batches_reused").inc()
        # Fault-tolerance observability: batches that needed failover and
        # whether the server is currently serving a degraded machine.
        if batch_result.failovers:
            self.metrics.counter("batches_failed_over").inc()
        self.metrics.gauge("degraded_mode").set(
            1.0 if any(
                s.session.degraded_mode for s in self._sessions.values()
            ) else 0.0
        )
        # Exact aggregates survive history eviction (wall seconds are
        # attributed once per request, matching the pre-retention sum).
        self._wall_seconds_served += len(results) * batch_result.wall_seconds
        overflow = max(
            0, len(self._results) + len(results) - self.results_retention
        )
        if overflow:
            self.metrics.counter("results_evicted").inc(overflow)
        self._results.extend(results)
        return results

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def accounting(self) -> Dict[str, int]:
        """Exact request conservation: admitted = served + shed + failed
        + queued, with the fleet router's keys.

        ``shed`` counts what a caller shed and recorded here as
        ``requests_shed``: the tenant scheduler records what each
        tenant's :meth:`FleetWorker.shed_expired` sheds on the tenant's
        server, while the fleet router counts its shards' sheds on its
        own registry, so a fleet shard's server records none. ``failed``
        counts the requests of batches that exhausted their failover
        budget. ``lost`` is the residual and must be zero.
        """
        counters = self.metrics.snapshot()["counters"]
        admitted = counters.get("requests_accepted", 0)
        served = counters.get("requests_served", 0)
        shed = counters.get("requests_shed", 0)
        failed = counters.get("requests_failed", 0)
        queued = self.queue_depth
        return {
            "admitted": admitted,
            "served": served,
            "shed": shed,
            "failed": failed,
            "queued": queued,
            "rejected_at_admission": counters.get("requests_rejected", 0),
            "lost": admitted - served - shed - failed - queued,
        }

    def throughput_summary(self) -> Dict[str, float]:
        """Aggregate inferences/sec (wall) and inferences/unit (simulated)."""
        snap = self.metrics.snapshot()["counters"]
        inferences = snap.get("inferences_served", 0)
        sim_busy = snap.get("sim_units_busy", 0)
        wall = self._wall_seconds_served
        return {
            "inferences": float(inferences),
            "sim_throughput": inferences / sim_busy if sim_busy else 0.0,
            "wall_throughput": inferences / wall if wall else 0.0,
        }

    def stats_report(self) -> str:
        """Multi-line operator report: metrics + plan-cache accounting."""
        lines = [self.metrics.render(), ""]
        stats = self.cache.stats
        lines.append(
            f"plan cache: {stats.hits} hits / {stats.misses} misses "
            f"(rate {stats.hit_rate:.2%}), {stats.evictions} evictions, "
            f"{stats.disk_hits} disk hits, {stats.disk_writes} disk writes, "
            f"{stats.compile_seconds:.3f}s compiling"
        )
        summary = self.throughput_summary()
        lines.append(
            f"throughput: {summary['inferences']:.0f} inferences, "
            f"{summary['sim_throughput']:.4f} inf/unit simulated, "
            f"{summary['wall_throughput']:.1f} inf/s wall"
        )
        snap = self.metrics.snapshot()
        faults = snap["counters"].get("faults_observed", 0)
        if faults:
            degraded = snap["gauges"].get("degraded_mode", 0.0)
            lines.append(
                f"fault tolerance: {faults} faults observed, "
                f"{snap['counters'].get('failover_recompiles', 0)} failover "
                f"recompiles, "
                f"{snap['counters'].get('batches_failed_over', 0)} batches "
                f"failed over, degraded_mode={degraded:g}"
            )
        return "\n".join(lines)
