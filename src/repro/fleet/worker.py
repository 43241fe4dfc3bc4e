"""One fleet shard: a batching server over a machine partition.

A :class:`FleetWorker` owns one :meth:`~repro.pim.config.PimConfig.partition`
of the fleet's physical machine and serves it with an ordinary
:class:`~repro.runtime.server.BatchingServer`. Two views of the partition
matter and they are deliberately different objects:

* ``partition`` — the *physical* view (which PE/vault ids this shard
  owns), kept for provenance, reporting and fleet bookkeeping;
* ``serving_config`` — the *logical* view (``partition.logical``), the
  shape the compile pipeline actually sees. Plans are keyed on the
  logical shape, so every shape-identical shard in the fleet shares plan
  identity — this is what makes the shared plan store a warm disk hit on
  worker B for a plan compiled on worker A (mirroring oneflow's
  ``TaskGraphMgr``: per-parallel-id placement over one logical lowering).

Fleet time is *virtual* and deterministic: the worker keeps a
``virtual_free_at`` horizon; a batch dispatched at ``max(now, free_at)``
completes per request at ``dispatch + sim_latency`` (the analytic
completion prefix the batching server already attributes), and the
horizon advances by the batch makespan. Queueing delay, service time and
therefore every percentile the bench reports are exact functions of the
trace — independent of host speed.

The shard's per-request records, :class:`RequestMeta` (on admission) and
:class:`FleetResult` (on completion), are immutable named tuples built
positionally: every served request builds one of each, and a frozen
dataclass would pay one ``object.__setattr__`` call per field.
"""

from __future__ import annotations

from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Tuple,
)

from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import (
    BatchingServer,
    InferenceRequest,
    RequestResult,
)
from repro.sim.modes import SimMode

from repro.fleet.slo import SloClass, SloPolicy
from repro.fleet.store import SharedPlanStore


class WorkerDeadError(RuntimeError):
    """A request was routed to a shard that is no longer alive."""

    def __init__(self, worker_id: str):
        self.worker_id = worker_id
        super().__init__(f"worker {worker_id!r} is dead")


class RequestMeta(NamedTuple):
    """Fleet-level identity the shard keeps per queued request."""

    fleet_id: int
    slo: SloClass
    arrival_units: int


class FleetResult(NamedTuple):
    """One served request, with fleet-level (virtual-time) attribution."""

    fleet_id: int
    worker_id: str
    workload: str
    slo: SloClass
    iterations: int
    arrival_units: int
    dispatch_units: int
    completion_units: int
    #: end-to-end virtual latency: queueing delay + simulated service.
    latency_units: int
    #: the underlying single-server measurement this rides on.
    result: RequestResult


class FleetWorker:
    """One shard: partition ownership + a batching server + virtual time.

    Args:
        worker_id: stable shard name (the consistent-hash ring member).
        partition: the physical sub-machine this shard owns — typically
            one element of :meth:`PimConfig.split`. Serving happens on
            ``partition.logical``.
        store: optional :class:`SharedPlanStore`; when given, this
            shard's plan cache uses the store directory as its disk tier
            (compile once anywhere, warm everywhere) and the store's
            batch-trace table (simulate once per fleet: a batch another
            shard already ran on an equal logical machine is reused).
            Without one the shard's cache owns its traces.
        cache_capacity: per-shard in-memory plan LRU bound.
        batch_window / max_queue / allocator / sim_mode / clock /
            graph_loader: forwarded to :class:`BatchingServer`.
    """

    def __init__(
        self,
        worker_id: str,
        partition: PimConfig,
        store: Optional[SharedPlanStore] = None,
        cache_capacity: int = 32,
        batch_window: int = 8,
        max_queue: int = 4096,
        allocator: str = "dp",
        sim_mode: "SimMode | str" = SimMode.STEADY_STATE,
        clock: Optional[Callable[[], float]] = None,
        graph_loader: Optional[Callable[[str], TaskGraph]] = None,
    ):
        self.worker_id = worker_id
        self.partition = partition
        self.serving_config = partition.logical
        self.store = store
        self.cache: PlanCache = (
            store.open_cache(capacity=cache_capacity)
            if store is not None
            else PlanCache(capacity=cache_capacity)
        )
        self.server = BatchingServer(
            self.serving_config,
            cache=self.cache,
            max_queue=max_queue,
            batch_window=batch_window,
            allocator=allocator,
            clock=clock,
            graph_loader=graph_loader,
            sim_mode=sim_mode,
        )
        self.alive = True
        #: virtual time at which this shard finishes its current work.
        self.virtual_free_at: int = 0
        self._meta: Dict[int, RequestMeta] = {}
        #: requests served / shed by this shard (exact, fleet-facing).
        self.served: int = 0
        self.shed: int = 0

    # -- admission -----------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return self.server.queue_depth

    def submit(
        self,
        workload: str,
        iterations: int,
        slo: SloClass,
        arrival_units: int,
        fleet_id: int,
    ) -> InferenceRequest:
        """Enqueue one routed request (raises
        :class:`~repro.runtime.server.QueueFullError` on shard overload,
        :class:`WorkerDeadError` if routed to a dead shard)."""
        if not self.alive:
            raise WorkerDeadError(self.worker_id)
        request = self.server.submit(workload, iterations=iterations)
        self._meta[request.request_id] = RequestMeta(
            fleet_id, slo, arrival_units
        )
        return request

    # -- serving -------------------------------------------------------
    def shed_expired(
        self, now_units: int, policies: Mapping[SloClass, SloPolicy]
    ) -> List[Tuple[InferenceRequest, RequestMeta]]:
        """Shed queued requests whose class deadline already passed.

        Deadline shedding happens at dispatch time, not admission time:
        a request ages while queued, and serving one that can no longer
        meet its deadline wastes shard capacity that on-time requests
        need. Shed requests are returned (never silently dropped) so the
        router can count them per class. When no policy sets a deadline
        nothing can expire, and the queue is not swept at all.
        """
        if all(policy.deadline_units is None for policy in policies.values()):
            return []

        def expired(request: InferenceRequest) -> bool:
            meta = self._meta.get(request.request_id)
            if meta is None:  # pragma: no cover - defensive
                return False
            deadline = policies[meta.slo].deadline_units
            if deadline is None:
                return False
            return now_units - meta.arrival_units > deadline

        removed = self.server.remove_queued(expired)
        out = [(r, self._meta.pop(r.request_id)) for r in removed]
        self.shed += len(out)
        return out

    def pump(
        self, now_units: int, max_batches: Optional[int] = None
    ) -> List[FleetResult]:
        """Serve queued batches, attributing virtual completion times.

        Batches formed in one pump run back to back on the shard: the
        first dispatches at ``max(now, virtual_free_at)``, each next one
        at the previous completion horizon. Per request, completion is
        ``dispatch + sim_latency`` — the batching server's analytic
        completion prefix — so fleet latency is queueing delay plus
        simulated service, deterministic end to end.
        """
        results: List[FleetResult] = []
        batches = 0
        while self.server.queue_depth:
            if max_batches is not None and batches >= max_batches:
                break
            batch = self.server.step()
            if not batch:  # pragma: no cover - queue_depth guards this
                break
            batches += 1
            dispatch = max(now_units, self.virtual_free_at)
            # The last request's sim latency is the whole batch's
            # completion offset (FIFO attribution inside the batch).
            self.virtual_free_at = dispatch + batch[-1].sim_latency
            for request_result in batch:
                request = request_result.request
                fleet_id, slo, arrival = self._meta.pop(request.request_id)
                completion = dispatch + request_result.sim_latency
                results.append(
                    FleetResult(
                        fleet_id, self.worker_id, request.workload, slo,
                        request.iterations, arrival, dispatch, completion,
                        completion - arrival, request_result,
                    )
                )
        self.served += len(results)
        return results

    # -- failover ------------------------------------------------------
    def kill(self) -> None:
        """Mark the shard dead (simulated whole-worker failure)."""
        self.alive = False

    def drain_queued(self) -> List[Tuple[InferenceRequest, RequestMeta]]:
        """Evict every queued request (with its fleet identity) unserved.

        Used by the router after :meth:`kill`: the dead shard's queue is
        drained and re-routed to the survivors, so whole-worker death
        loses zero admitted requests.
        """
        removed = self.server.remove_queued()
        return [(r, self._meta.pop(r.request_id)) for r in removed]

    def evict_workload(
        self, workload: str
    ) -> List[Tuple[InferenceRequest, RequestMeta]]:
        """Evict only ``workload``'s queued requests, fleet identity intact.

        The live-rewire analogue of :meth:`drain_queued`: the router pulls
        one workload's requests off the shard (FIFO order, other
        workloads untouched) so they can be re-routed to the shard owning
        the *new* graph's plan digest.
        """
        removed = self.server.remove_queued(
            lambda request: request.workload == workload
        )
        return [(r, self._meta.pop(r.request_id)) for r in removed]

    # -- reporting -----------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        """Operator-facing shard summary (JSON-compatible)."""
        counters = self.server.metrics.snapshot()["counters"]
        return {
            "worker_id": self.worker_id,
            "alive": self.alive,
            "partition": self.partition.describe(),
            "pes": self.serving_config.num_pes,
            "vaults": self.serving_config.num_vaults,
            "served": self.served,
            "shed": self.shed,
            "queue_depth": self.queue_depth,
            "virtual_free_at": self.virtual_free_at,
            "batches_executed": counters.get("batches_executed", 0),
            "sim_batches_reused": counters.get("sim_batches_reused", 0),
            "plans_compiled_or_loaded": counters.get(
                "plans_compiled_or_loaded", 0
            ),
            "cache": self.cache.stats.as_dict(),
        }
