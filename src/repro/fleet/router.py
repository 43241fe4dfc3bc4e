"""Fleet front-end: plan-affinity routing, SLO admission, failover.

The router is to the fleet what the batching server is to one machine: a
deterministic synchronous core. ``submit()`` admission-controls by SLO
class and routes by consistent hashing on the *plan fingerprint* — the
content-addressed identity of the plan the request needs — so every
request lands on the shard whose warm plan cache already holds (or will
hold, after one compile) its plan. ``pump()`` sheds deadline-expired
requests, serves queued batches shard by shard, and folds per-class
latency into the fleet metrics. ``kill_worker()`` is the PR 5 failover
story lifted to fleet granularity: the dead shard leaves the ring, its
queue is drained and re-routed to the ring survivors, and the accounting
proves zero admitted requests were lost.
"""

from __future__ import annotations

import functools
import itertools
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence

from dataclasses import dataclass

from repro.cnn.workloads import load_workload
from repro.graph.taskgraph import TaskGraph
from repro.runtime.metrics import Counter, MetricsRegistry
from repro.runtime.plan_cache import PlanKey
from repro.runtime.server import (
    REWIRE_CUT_POINTS,
    InferenceRequest,
    QueueFullError,
)

from repro.fleet.hashing import HashRing
from repro.fleet.slo import (
    DEFAULT_SLO_POLICIES,
    FleetAdmissionError,
    SloClass,
    SloPolicy,
)
from repro.fleet.worker import FleetResult, FleetWorker, RequestMeta


class FleetConfigurationError(ValueError):
    """Raised for inconsistent fleet wiring."""


@dataclass(frozen=True)
class FleetRewireResult:
    """Outcome of one fleet-wide live rewire.

    Accounting closes by construction: every request queued for the
    workload at the cut-point is either in ``drained`` (served before
    the swap, on the old plan) or counted in ``rerouted`` (re-submitted,
    fleet identity intact, to the shard owning the new digest) — nothing
    is dropped, and the fleet ``accounting()`` residual stays zero.
    """

    workload: str
    cut_point: str
    #: shard that owned the workload's old plan digest.
    old_worker: str
    #: shard the new graph's plan digest hashes to.
    new_worker: str
    #: requests served at the cut-point ("drain" only; a pump serves the
    #: affected shards' whole queues, so other workloads may appear too).
    drained: List[FleetResult]
    #: queued requests carried across the swap to the new owner.
    rerouted: int
    #: live sessions hot-swapped across the fleet.
    sessions_swapped: int
    #: True when any shard's swap needed an actual compile; False means
    #: every swapped shard found the new plan warm in its cache.
    recompiled: bool


class FleetRouter:
    """Deterministic fleet front-end over N :class:`FleetWorker` shards.

    Args:
        workers: the shards. Worker ids must be unique — they are the
            consistent-hash ring members.
        policies: per-:class:`SloClass` admission policy; classes absent
            from the mapping fall back to :data:`DEFAULT_SLO_POLICIES`.
        replicas: virtual nodes per shard on the ring.
        graph_loader: workload-name resolver used to fingerprint plans
            for routing (injectable for tests, like the server's).
    """

    def __init__(
        self,
        workers: Sequence[FleetWorker],
        policies: Optional[Mapping[SloClass, SloPolicy]] = None,
        replicas: int = 64,
        graph_loader: Optional[Callable[[str], TaskGraph]] = None,
    ):
        if not workers:
            raise FleetConfigurationError("a fleet needs at least one worker")
        ids = [w.worker_id for w in workers]
        if len(set(ids)) != len(ids):
            raise FleetConfigurationError(f"duplicate worker ids in {ids}")
        self.workers: Dict[str, FleetWorker] = {
            w.worker_id: w for w in workers
        }
        self.policies: Dict[SloClass, SloPolicy] = dict(DEFAULT_SLO_POLICIES)
        if policies:
            self.policies.update(policies)
        self.ring = HashRing(ids, replicas=replicas)
        self.graph_loader = (
            graph_loader if graph_loader is not None else load_workload
        )
        self.metrics = MetricsRegistry()
        #: virtual now, in simulated time units (monotone).
        self.now_units: int = 0
        self._fleet_ids = itertools.count(1)
        self._queued_by_class: Dict[SloClass, int] = {
            slo: 0 for slo in SloClass
        }
        self._affinity_keys: Dict[str, str] = {}
        #: ``fleet.requests_admitted.<class>`` per class, bound on first use.
        self._admitted_by_class: Dict[SloClass, Counter] = {}
        #: live-rewire overrides: workload -> the graph whose plan digest
        #: the workload now routes on (set by :meth:`rewire`).
        self._graph_overrides: Dict[str, TaskGraph] = {}
        #: results served while re-routing onto a saturated shard, handed
        #: out by the next :meth:`pump` (and so by :meth:`drain`).
        self._unreturned: List[FleetResult] = []

    # ------------------------------------------------------------------
    # routing
    # ------------------------------------------------------------------
    def affinity_key(self, workload: str) -> str:
        """The plan fingerprint this workload's requests hash on.

        This is the content-addressed :class:`PlanKey` digest of the plan
        the request needs — graph fingerprint, the fleet's *logical*
        shard shape, and the allocator knob — i.e. exactly the key the
        shard's plan cache will use. Cached per workload: routing a
        million requests fingerprints each distinct workload once.
        """
        key = self._affinity_keys.get(workload)
        if key is None:
            reference = next(iter(self.workers.values()))
            override = self._graph_overrides.get(workload)
            graph = (
                override if override is not None
                else self.graph_loader(workload)
            )
            key = PlanKey(
                graph_fingerprint=graph.fingerprint(),
                config_fingerprint=reference.server.config.fingerprint(),
                allocator=reference.server.allocator,
            ).digest
            self._affinity_keys[workload] = key
        return key

    def worker_for(self, workload: str) -> FleetWorker:
        """The shard currently owning this workload's plan key range."""
        return self.workers[self.ring.route(self.affinity_key(workload))]

    # ------------------------------------------------------------------
    # time
    # ------------------------------------------------------------------
    def advance_to(self, units: int) -> None:
        """Move virtual now forward (never backward)."""
        self.now_units = max(self.now_units, int(units))

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        """Admitted-but-unserved requests across the whole fleet."""
        return sum(self._queued_by_class.values())

    def class_depth(self, slo: "SloClass | str") -> int:
        return self._queued_by_class[SloClass.from_name(slo)]

    def submit(
        self,
        workload: str,
        iterations: int = 1,
        slo: "SloClass | str" = SloClass.STANDARD,
    ) -> InferenceRequest:
        """Admit and route one request.

        Raises :class:`FleetAdmissionError` when the request's SLO class
        is at its fleet-wide depth bound, and propagates the shard's
        :class:`~repro.runtime.server.QueueFullError` when the owning
        shard itself is saturated — both are typed backpressure; the
        caller owns retry policy.
        """
        slo = SloClass.from_name(slo)
        policy = self.policies[slo]
        depth = self._queued_by_class[slo]
        if depth >= policy.max_queue_depth:
            self.metrics.counter("fleet.requests_rejected").inc()
            self.metrics.counter(
                f"fleet.requests_rejected.{slo.value}"
            ).inc()
            raise FleetAdmissionError(
                slo, depth, policy.max_queue_depth, workload
            )
        worker = self.worker_for(workload)
        request = worker.submit(
            workload,
            iterations=iterations,
            slo=slo,
            arrival_units=self.now_units,
            fleet_id=next(self._fleet_ids),
        )
        self._queued_by_class[slo] = depth + 1
        self._requests_admitted.inc()
        admitted = self._admitted_by_class.get(slo)
        if admitted is None:
            admitted = self._admitted_by_class[slo] = self.metrics.counter(
                f"fleet.requests_admitted.{slo.value}"
            )
        admitted.inc()
        return request

    @functools.cached_property
    def _requests_admitted(self) -> Counter:
        """``fleet.requests_admitted``, registered on the first admission."""
        return self.metrics.counter("fleet.requests_admitted")

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------
    def _record_served(self, results: List[FleetResult]) -> None:
        """Fold one pump's results into the fleet metrics, once per class.

        Each histogram receives its values in arrival order, exactly as
        one ``observe`` per result would record them.
        """
        if not results:
            return
        by_class: Dict[SloClass, List[int]] = {}
        for res in results:
            by_class.setdefault(res.slo, []).append(res.latency_units)
        self.metrics.counter("fleet.requests_served").inc(len(results))
        self.metrics.histogram("fleet.latency_units").observe_many(
            res.latency_units for res in results
        )
        for slo, latencies in by_class.items():
            self._queued_by_class[slo] -= len(latencies)
            self.metrics.histogram(
                f"fleet.latency_units.{slo.value}"
            ).observe_many(latencies)

    def _record_shed(self, shed: List[tuple]) -> None:
        """Count one sweep's shed requests, once per class."""
        if not shed:
            return
        by_class: Dict[SloClass, int] = {}
        for _request, meta in shed:
            by_class[meta.slo] = by_class.get(meta.slo, 0) + 1
        self.metrics.counter("fleet.requests_shed").inc(len(shed))
        for slo, count in by_class.items():
            self._queued_by_class[slo] -= count
            self.metrics.counter(f"fleet.requests_shed.{slo.value}").inc(count)

    def _serve(
        self, worker: FleetWorker, max_batches: Optional[int] = None
    ) -> List[FleetResult]:
        """Serve one shard: shed what has expired, pump, record."""
        self._record_shed(worker.shed_expired(self.now_units, self.policies))
        served = worker.pump(self.now_units, max_batches=max_batches)
        self._record_served(served)
        return served

    def pump(self, max_batches: Optional[int] = None) -> List[FleetResult]:
        """One scheduling round: shed expired, serve every live shard.

        A shard found dead with work still queued (killed outside
        :meth:`kill_worker`) is failed over here before serving, so the
        router never strands a queue. The results come after any that
        re-routing served since the last pump.
        """
        results: List[FleetResult] = []
        for worker in list(self.workers.values()):
            if not worker.alive:
                if worker.worker_id in self.ring:
                    self._fail_over(worker)
                continue
            results.extend(self._serve(worker, max_batches))
        if self._unreturned:
            results = self._unreturned + results
            self._unreturned = []
        return results

    def drain(self) -> List[FleetResult]:
        """Pump until no admitted request remains queued anywhere."""
        results: List[FleetResult] = []
        while self.queue_depth:
            round_results = self.pump()
            results.extend(round_results)
            if not round_results and self.queue_depth:
                # Every remaining request was shed (or there are no live
                # shards left) — pump() made no progress serving, and
                # another round would spin forever.
                if not any(w.alive for w in self.workers.values()):
                    raise FleetConfigurationError(
                        "no live workers remain but requests are queued"
                    )
                if not any(
                    w.queue_depth for w in self.workers.values() if w.alive
                ):
                    break
        return results

    # ------------------------------------------------------------------
    # fleet failover
    # ------------------------------------------------------------------
    def kill_worker(self, worker_id: str) -> int:
        """Kill one shard and fail its queue over to the survivors.

        Returns the number of re-routed requests. The dead shard leaves
        the ring first (so re-routing hashes onto survivors only), then
        its queue is drained and re-submitted *preserving each request's
        fleet identity* — original arrival time, SLO class and fleet id —
        so latency accounting keeps charging the full queueing delay and
        zero admitted requests are lost.
        """
        worker = self.workers[worker_id]
        worker.kill()
        return self._fail_over(worker)

    def _fail_over(self, worker: FleetWorker) -> int:
        if worker.worker_id in self.ring:
            self.ring.remove(worker.worker_id)
        self.metrics.counter("fleet.workers_lost").inc()
        evicted = worker.drain_queued()
        for request, meta in evicted:
            self._reroute(request, meta)
        self.metrics.counter("fleet.requests_rerouted").inc(len(evicted))
        return len(evicted)

    def _reroute(self, request: InferenceRequest, meta: RequestMeta) -> None:
        """Re-enqueue one already-admitted request on a surviving shard.

        Admission control is *not* re-applied — the request was already
        admitted once. A saturated survivor is served (which can only
        drain its queue) and the submit retried; with at least one live
        shard this terminates, because every pump makes room. What that
        serves is handed out by the next :meth:`pump`.
        """
        while True:
            target = self.workers[
                self.ring.route(self.affinity_key(request.workload))
            ]
            try:
                target.submit(
                    request.workload,
                    iterations=request.iterations,
                    slo=meta.slo,
                    arrival_units=meta.arrival_units,
                    fleet_id=meta.fleet_id,
                )
                return
            except QueueFullError:
                self._unreturned.extend(self._serve(target))

    # ------------------------------------------------------------------
    # live rewiring
    # ------------------------------------------------------------------
    def rewire(
        self,
        workload: str,
        new_graph: TaskGraph,
        cut_point: str = "drain",
    ) -> FleetRewireResult:
        """Hot-swap one workload's graph across the whole fleet.

        The single-server :meth:`~repro.runtime.server.BatchingServer.rewire`
        lifted to fleet granularity, with the extra obligation the fleet
        adds: *plan affinity moves with the graph*. After the swap the
        workload hashes on the new graph's plan digest, so it may land on
        a different shard than before.

        Cut-point semantics (queued requests, nothing dropped):

        * ``"drain"`` — every live shard holding queued requests for the
          workload is served first (expired requests shed, as in
          :meth:`pump`), so those requests are served on the *old* plan
          with exact fleet attribution before the swap lands.
        * ``"reroute"`` — queued requests are evicted with their fleet
          identity (arrival time, SLO class, fleet id) and re-submitted
          after the swap, landing on the shard that owns the *new*
          digest and serving on the *new* plan.

        Every live session for the workload is swapped through the
        recompile-through-cache path; shards that never served it get
        the override installed so their first session compiles the new
        graph. Repeat swaps to a previously served graph come back with
        ``recompiled=False`` — the plan store already holds the plan.
        """
        if cut_point not in REWIRE_CUT_POINTS:
            raise ValueError(
                f"cut_point must be one of {REWIRE_CUT_POINTS}, "
                f"got {cut_point!r}"
            )
        old_worker = self.worker_for(workload).worker_id
        drained: List[FleetResult] = []
        evicted: List[tuple] = []
        if cut_point == "drain":
            for worker in self.workers.values():
                if worker.alive and any(
                    request.workload == workload
                    for request in worker.server.queued_requests()
                ):
                    drained.extend(self._serve(worker))
        else:
            for worker in self.workers.values():
                if worker.alive:
                    evicted.extend(worker.evict_workload(workload))
        # Remap plan affinity: drop the cached digest and pin the
        # override, so the next affinity_key() hashes the new graph.
        self._graph_overrides[workload] = new_graph
        self._affinity_keys.pop(workload, None)
        sessions_swapped = 0
        recompiled = False
        for worker in self.workers.values():
            if not worker.alive:
                continue
            if workload in worker.server.sessions():
                result = worker.server.rewire(
                    workload, new_graph, cut_point="reroute"
                )
                recompiled = recompiled or result.recompiled
                sessions_swapped += 1
            else:
                worker.server.set_graph_override(workload, new_graph)
        new_worker = self.worker_for(workload).worker_id
        for request, meta in evicted:
            self._reroute(request, meta)
        if evicted:
            self.metrics.counter("fleet.requests_rerouted").inc(len(evicted))
        self.metrics.counter("fleet.graph_rewires").inc()
        return FleetRewireResult(
            workload=workload,
            cut_point=cut_point,
            old_worker=old_worker,
            new_worker=new_worker,
            drained=drained,
            rerouted=len(evicted),
            sessions_swapped=sessions_swapped,
            recompiled=recompiled,
        )

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def fleet_metrics(self) -> MetricsRegistry:
        """One merged registry: router counters + every shard's metrics."""
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for worker in self.workers.values():
            merged.merge(worker.server.metrics)
        return merged

    def cache_summary(self) -> Dict[str, Any]:
        """Aggregate plan-cache accounting across every shard."""
        totals = {
            "hits": 0,
            "misses": 0,
            "disk_hits": 0,
            "disk_writes": 0,
            "evictions": 0,
            "compile_seconds": 0.0,
            "verify_failures": 0,
        }
        for worker in self.workers.values():
            stats = worker.server.cache.stats
            totals["hits"] += stats.hits
            totals["misses"] += stats.misses
            totals["disk_hits"] += stats.disk_hits
            totals["disk_writes"] += stats.disk_writes
            totals["evictions"] += stats.evictions
            totals["compile_seconds"] += stats.compile_seconds
            totals["verify_failures"] += stats.verify_failures
        lookups = totals["hits"] + totals["misses"]
        totals["hit_rate"] = totals["hits"] / lookups if lookups else 0.0
        return totals

    def accounting(self) -> Dict[str, int]:
        """Exact request conservation: admitted = served + shed + queued.

        ``lost`` is the residual — it must be zero by construction (every
        admitted request is served, shed with attribution, or still
        queued), and the bench asserts it. ``queued`` counts what the
        live shards' queues hold, not the router's per-class books, so a
        request a shard dropped, or one stranded on a dead shard's queue,
        shows as lost.
        """
        counters = self.metrics.snapshot()["counters"]
        admitted = counters.get("fleet.requests_admitted", 0)
        served = counters.get("fleet.requests_served", 0)
        shed = counters.get("fleet.requests_shed", 0)
        queued = sum(w.queue_depth for w in self.workers.values() if w.alive)
        return {
            "admitted": admitted,
            "served": served,
            "shed": shed,
            "queued": queued,
            "rejected_at_admission": counters.get(
                "fleet.requests_rejected", 0
            ),
            "rerouted": counters.get("fleet.requests_rerouted", 0),
            "workers_lost": counters.get("fleet.workers_lost", 0),
            "lost": admitted - served - shed - queued,
        }
