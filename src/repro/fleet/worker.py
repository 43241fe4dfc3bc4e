"""One fleet worker: a batching server over a machine partition.

A :class:`FleetWorker` owns one partition of the physical machine and
serves it through the :class:`~repro.runtime.server.BatchingServer` it
is given. ``partition`` is the *physical* view (which PE/vault ids the
worker owns), kept for provenance and reporting; ``server.config`` is
what it serves. A fleet shard (:func:`shard_worker`) serves
``partition.logical``: plans are keyed on the logical shape, so every
shape-identical shard shares plan identity — the shared plan store is a
warm disk hit on worker B for a plan compiled on worker A (oneflow's
``TaskGraphMgr``: per-parallel-id placement over one logical lowering).
A tenant of :class:`~repro.fleet.tenancy.TenantScheduler` serves its
partition view itself, ``pe_mask`` included, so same-shape tenants keep
distinct plan identity.

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

from repro.fleet.slo import SloClass, SloPolicy
from repro.fleet.store import SharedPlanStore


#: in-memory plan LRU bound of each fleet shard's cache.
_SHARD_CACHE_CAPACITY = 32


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
    """One worker: partition ownership + a batching server + virtual time.

    Args:
        worker_id: stable worker name (the consistent-hash ring member of
            a fleet shard, the tenant name of a tenant).
        partition: the physical sub-machine this worker owns — one element
            of :meth:`PimConfig.split` for a shard, a placement view for a
            tenant.
        server: the batching server that serves it (:func:`shard_worker`
            builds a shard's).
    """

    def __init__(
        self, worker_id: str, partition: PimConfig, server: BatchingServer
    ):
        self.worker_id = worker_id
        self.partition = partition
        self.server = server
        self.alive = True
        #: virtual time at which this worker finishes its current work.
        self.virtual_free_at: int = 0
        self._meta: Dict[int, RequestMeta] = {}
        #: requests served / shed by this worker (exact, fleet-facing).
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
            "pes": self.server.config.num_pes,
            "vaults": self.server.config.num_vaults,
            "served": self.served,
            "shed": self.shed,
            "queue_depth": self.queue_depth,
            "virtual_free_at": self.virtual_free_at,
            "batches_executed": counters.get("batches_executed", 0),
            "sim_batches_reused": counters.get("sim_batches_reused", 0),
            "plans_compiled_or_loaded": counters.get(
                "plans_compiled_or_loaded", 0
            ),
            "cache": self.server.cache.stats.as_dict(),
        }


def shard_worker(
    worker_id: str,
    partition: PimConfig,
    store: Optional[SharedPlanStore] = None,
    batch_window: int = 8,
    max_queue: int = 4096,
    allocator: str = "dp",
    graph_loader: Optional[Callable[[str], TaskGraph]] = None,
) -> FleetWorker:
    """A fleet shard: a worker serving ``partition.logical``.

    With a ``store`` the shard's plan cache uses the store directory as
    its disk tier (compile once anywhere, warm everywhere) and the
    store's batch-trace table (simulate once per fleet: a batch another
    shard already ran on an equal logical machine is reused). Without one
    the shard's private cache owns its traces. The rest is forwarded to
    :class:`BatchingServer`.
    """
    cache = (
        store.open_cache(capacity=_SHARD_CACHE_CAPACITY)
        if store is not None
        else PlanCache(capacity=_SHARD_CACHE_CAPACITY)
    )
    server = BatchingServer(
        partition.logical,
        cache=cache,
        max_queue=max_queue,
        batch_window=batch_window,
        allocator=allocator,
        graph_loader=graph_loader,
    )
    return FleetWorker(worker_id, partition, server)
