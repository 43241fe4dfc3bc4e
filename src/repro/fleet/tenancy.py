"""Multi-tenant scheduling over one spatially partitioned machine.

The placement half of multi-tenancy lives in :mod:`repro.pim.tenancy`
(pure config carving); this module is the *serving* half. Each tenant is
a :class:`~repro.fleet.worker.FleetWorker` named after the tenant, on
the tenant's *partition* view — not ``.logical`` as the fleet shards
serve — so every tenant's plans carry the physical ``pe_mask`` in their
cache identity and the scheduler's one shared
:class:`~repro.runtime.plan_cache.PlanCache` can never cross-serve plans
between tenants.

Shedding and attribution are the fleet's: a request arrives at its
tenant's virtual clock (``virtual_free_at``), expires by the one
dispatch-time rule of :meth:`FleetWorker.shed_expired`, and is served
and timed by :meth:`FleetWorker.pump`. What the scheduler adds is the
choice of tenant: strictest SLO class first, then the tenant least far
along its clock, then the name. Tenants occupy *disjoint* hardware, so
their clocks advance independently — serving tenant A never delays
tenant B's simulated time, which is exactly the isolation property the
``tenancy`` cases of ``repro.verify.scenarios`` check (co-resident
aggregates == sum of isolated runs).

Each request is counted once, on its tenant's server; the scheduler's
own registry holds only its admission rejections, and
:meth:`TenantScheduler.fleet_view` merges the two as
:meth:`FleetRouter.fleet_metrics` does.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.fleet.slo import (
    DEFAULT_SLO_POLICIES,
    FleetAdmissionError,
    SloClass,
    SloPolicy,
)
from repro.fleet.worker import FleetResult, FleetWorker
from repro.pim.tenancy import TenantPlacement
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer, InferenceRequest


class TenancyError(ValueError):
    """Raised for unknown tenants or malformed scheduler configuration."""


#: Strictest-first ordering used by the cross-tenant scheduler.
_SLO_ORDER = {slo: index for index, slo in enumerate(SloClass)}


class TenantScheduler:
    """Serve several co-resident models, one partition each.

    Args:
        placement: validated-disjoint carving of the machine; one
            :class:`FleetWorker` is created per tenant on the tenant's
            partition view.
        slos: per-tenant SLO class (``STANDARD`` when omitted).
        policies: per-class admission policy table
            (:data:`DEFAULT_SLO_POLICIES` by default). A tenant's queue
            bound and dispatch deadline come from its class's policy.
        cache: plan cache *shared by every tenant* (a fresh one when
            omitted). Sharing is safe — and deliberately exercised —
            because partition fingerprints give each tenant distinct
            plan identity.
        server_kwargs: forwarded to every :class:`BatchingServer`
            (``allocator``, ``batch_window``, ``sim_mode``, ...).
    """

    def __init__(
        self,
        placement: TenantPlacement,
        slos: Optional[Mapping[str, "SloClass | str"]] = None,
        policies: Optional[Mapping[SloClass, SloPolicy]] = None,
        cache: Optional[PlanCache] = None,
        **server_kwargs: Any,
    ):
        self.placement = placement
        self.cache = cache if cache is not None else PlanCache()
        self.policies = dict(DEFAULT_SLO_POLICIES)
        if policies:
            self.policies.update(policies)
        #: admission rejections: the one count no tenant server keeps.
        self.metrics = MetricsRegistry()
        slos = slos or {}
        unknown = sorted(set(slos) - set(placement.names))
        if unknown:
            raise TenancyError(
                f"SLO classes given for unknown tenants {unknown}; "
                f"placement has {sorted(placement.names)}"
            )
        self._slos: Dict[str, SloClass] = {}
        self._workers: Dict[str, FleetWorker] = {}
        for name, view in placement.items():
            slo = SloClass.from_name(slos.get(name, SloClass.STANDARD))
            server = BatchingServer(
                config=view,
                cache=self.cache,
                max_queue=self.policies[slo].max_queue_depth,
                **server_kwargs,
            )
            self._slos[name] = slo
            self._workers[name] = FleetWorker(name, view, server)
        self._fleet_ids = itertools.count(1)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(self._workers)

    def server_for(self, tenant: str) -> BatchingServer:
        return self._worker(tenant).server

    def slo_for(self, tenant: str) -> SloClass:
        self._worker(tenant)
        return self._slos[tenant]

    def horizon(self, tenant: str) -> int:
        """The tenant's virtual clock (simulated units served so far)."""
        return self._worker(tenant).virtual_free_at

    def queue_depth(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            return self._worker(tenant).queue_depth
        return sum(w.queue_depth for w in self._workers.values())

    def _worker(self, tenant: str) -> FleetWorker:
        try:
            return self._workers[tenant]
        except KeyError:
            raise TenancyError(
                f"unknown tenant {tenant!r}; scheduler has "
                f"{sorted(self._workers)}"
            ) from None

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self, tenant: str, workload: str, iterations: int = 1
    ) -> InferenceRequest:
        """Admit one request for ``tenant`` or raise typed backpressure.

        Admission is bounded per tenant by the tenant's SLO-class policy
        — one tenant flooding its queue can never consume another
        tenant's admission budget, mirroring the hardware isolation. The
        request arrives at the tenant's virtual clock.
        """
        worker = self._worker(tenant)
        slo = self._slos[tenant]
        bound = self.policies[slo].max_queue_depth
        if worker.queue_depth >= bound:
            self.metrics.counter("requests_rejected").inc()
            raise FleetAdmissionError(slo, worker.queue_depth, bound, workload)
        return worker.submit(
            workload,
            iterations,
            slo,
            arrival_units=worker.virtual_free_at,
            fleet_id=next(self._fleet_ids),
        )

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _next_tenant(self) -> Optional[str]:
        """Strictest SLO class first, then least-served, then name."""
        candidates = [
            (_SLO_ORDER[self._slos[name]], worker.virtual_free_at, name)
            for name, worker in self._workers.items()
            if worker.queue_depth
        ]
        return min(candidates)[2] if candidates else None

    def step(self) -> List[FleetResult]:
        """Serve one batch from the most urgent tenant; [] when idle.

        The chosen tenant first sheds deadline-expired requests (counted
        as ``requests_shed`` on its server, never silently dropped), then
        serves one coalesced batch at its own virtual clock, which
        advances by the batch completion time. Other tenants' clocks are
        untouched — disjoint partitions run concurrently.
        """
        while True:
            name = self._next_tenant()
            if name is None:
                return []
            worker = self._workers[name]
            shed = worker.shed_expired(worker.virtual_free_at, self.policies)
            if shed:
                worker.server.metrics.counter("requests_shed").inc(len(shed))
            results = worker.pump(worker.virtual_free_at, max_batches=1)
            if results:
                return results
            # Everything queued for this tenant was expired; look for the
            # next most urgent tenant instead of spinning here.

    def drain(self) -> List[FleetResult]:
        """Serve until every tenant's queue is empty (shedding included)."""
        results: List[FleetResult] = []
        while self.queue_depth() > 0:
            served = self.step()
            if not served and self.queue_depth() == 0:
                break
            results.extend(served)
        return results

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def fleet_view(self) -> MetricsRegistry:
        """One merged registry: admission rejections + every tenant server.

        Counters sum via :meth:`MetricsRegistry.merge`, exactly like the
        fleet router's view; each request is counted once, by its tenant.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for worker in self._workers.values():
            merged.merge(worker.server.metrics)
        return merged

    def accounting(self) -> Dict[str, Any]:
        """Exact request conservation, per tenant and machine-wide.

        For every tenant: ``accepted == served + shed + queued``, read
        from the tenant server's own :meth:`BatchingServer.accounting`.
        The totals are the sums — nothing is lost between admission and
        disposition.
        """
        per_tenant: Dict[str, Dict[str, int]] = {}
        totals = {"accepted": 0, "served": 0, "shed": 0, "queued": 0}
        for name, worker in self._workers.items():
            books = worker.server.accounting()
            row = {
                "accepted": books["admitted"],
                "served": books["served"],
                "shed": books["shed"],
                "queued": books["queued"],
                "horizon_units": worker.virtual_free_at,
                "slo": self._slos[name].value,
            }
            per_tenant[name] = row
            for key in totals:
                totals[key] += row[key]
        return {"tenants": per_tenant, "totals": totals}

    def describe(self) -> str:
        lines = [self.placement.describe()]
        for name, worker in self._workers.items():
            lines.append(
                f"  {name}: slo={self._slos[name].value} "
                f"queue={worker.queue_depth} "
                f"horizon={worker.virtual_free_at} units"
            )
        return "\n".join(lines)
