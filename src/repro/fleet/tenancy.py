"""Multi-tenant scheduling over one spatially partitioned machine.

The placement half of multi-tenancy lives in :mod:`repro.pim.tenancy`
(pure config carving); this module is the *serving* half. A
:class:`TenantScheduler` runs one deterministic
:class:`~repro.runtime.server.BatchingServer` per tenant, each on the
tenant's *partition* view — not ``.logical`` as the fleet shards do —
so every tenant's plans carry the physical ``pe_mask`` in their cache
identity and a shared :class:`~repro.runtime.plan_cache.PlanCache` can
never cross-serve plans between tenants.

Scheduling across tenants is SLO-class-strictest-first with a
fair-share tie-break on each tenant's simulated-time horizon: tenants
occupy *disjoint* hardware, so their virtual clocks advance
independently — serving tenant A never delays tenant B's simulated
time, which is exactly the isolation property the
``tenancy`` cases of ``repro.verify.scenarios`` check (co-resident
aggregates == sum of isolated runs).

Per-tenant metrics stay on each tenant's own registry; the fleet view
namespaces them as ``tenant.<name>.<instrument>`` and folds the
aggregate through the existing :meth:`MetricsRegistry.merge`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.fleet.slo import (
    DEFAULT_SLO_POLICIES,
    FleetAdmissionError,
    SloClass,
    SloPolicy,
)
from repro.pim.tenancy import TenantPlacement
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer, InferenceRequest, RequestResult


class TenancyError(ValueError):
    """Raised for unknown tenants or malformed scheduler configuration."""


#: Strictest-first ordering used by the cross-tenant scheduler.
_SLO_ORDER = {slo: index for index, slo in enumerate(SloClass)}


@dataclass(frozen=True)
class TenantResult:
    """One served request, attributed to its tenant."""

    tenant: str
    result: RequestResult

    @property
    def sim_latency(self) -> int:
        return self.result.sim_latency


@dataclass
class _TenantState:
    """One tenant's server plus scheduler-side bookkeeping."""

    server: BatchingServer
    slo: SloClass
    policy: SloPolicy
    #: this tenant's virtual clock: simulated units its partition has
    #: been busy. Advances only when *this* tenant is served.
    horizon: int = 0
    #: request_id -> horizon at submit, for deadline shedding.
    arrivals: Dict[int, int] = None  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if self.arrivals is None:
            self.arrivals = {}


class TenantScheduler:
    """Serve several co-resident models, one partition each.

    Args:
        placement: validated-disjoint carving of the machine; one
            :class:`BatchingServer` is created per tenant on the
            tenant's partition view.
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
        self.metrics = MetricsRegistry()
        slos = slos or {}
        unknown = sorted(set(slos) - set(placement.names))
        if unknown:
            raise TenancyError(
                f"SLO classes given for unknown tenants {unknown}; "
                f"placement has {sorted(placement.names)}"
            )
        self._tenants: Dict[str, _TenantState] = {}
        for name, view in placement.items():
            slo = SloClass.from_name(slos.get(name, SloClass.STANDARD))
            policy = self.policies[slo]
            self._tenants[name] = _TenantState(
                server=BatchingServer(
                    config=view,
                    cache=self.cache,
                    max_queue=policy.max_queue_depth,
                    **server_kwargs,
                ),
                slo=slo,
                policy=policy,
            )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def tenants(self) -> Tuple[str, ...]:
        return tuple(self._tenants)

    def server_for(self, tenant: str) -> BatchingServer:
        return self._state(tenant).server

    def slo_for(self, tenant: str) -> SloClass:
        return self._state(tenant).slo

    def horizon(self, tenant: str) -> int:
        """The tenant's virtual clock (simulated units served so far)."""
        return self._state(tenant).horizon

    def queue_depth(self, tenant: Optional[str] = None) -> int:
        if tenant is not None:
            return self._state(tenant).server.queue_depth
        return sum(s.server.queue_depth for s in self._tenants.values())

    def _state(self, tenant: str) -> _TenantState:
        try:
            return self._tenants[tenant]
        except KeyError:
            raise TenancyError(
                f"unknown tenant {tenant!r}; scheduler has "
                f"{sorted(self._tenants)}"
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
        tenant's admission budget, mirroring the hardware isolation.
        """
        state = self._state(tenant)
        depth = state.server.queue_depth
        if depth >= state.policy.max_queue_depth:
            self.metrics.counter("requests_rejected").inc()
            raise FleetAdmissionError(
                state.slo, depth, state.policy.max_queue_depth, workload
            )
        request = state.server.submit(workload, iterations)
        state.arrivals[request.request_id] = state.horizon
        self.metrics.counter("requests_accepted").inc()
        return request

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------
    def _next_tenant(self) -> Optional[str]:
        """Strictest SLO class first, then least-served, then name."""
        candidates = [
            (name, state)
            for name, state in self._tenants.items()
            if state.server.queue_depth > 0
        ]
        if not candidates:
            return None
        candidates.sort(
            key=lambda item: (_SLO_ORDER[item[1].slo], item[1].horizon, item[0])
        )
        return candidates[0][0]

    def _shed_expired(self, name: str, state: _TenantState) -> List[InferenceRequest]:
        deadline = state.policy.deadline_units
        if deadline is None:
            return []
        expired = state.server.remove_queued(
            lambda request: (
                state.horizon - state.arrivals.get(request.request_id, state.horizon)
            )
            > deadline
        )
        for request in expired:
            state.arrivals.pop(request.request_id, None)
            self.metrics.counter("requests_shed").inc()
            state.server.metrics.counter("requests_shed").inc()
        return expired

    def step(self) -> List[TenantResult]:
        """Serve one batch from the most urgent tenant; [] when idle.

        The chosen tenant first sheds deadline-expired requests (counted,
        never silently dropped), then serves one coalesced batch, and
        its *own* virtual clock advances by the batch completion time.
        Other tenants' clocks are untouched — disjoint partitions run
        concurrently.
        """
        while True:
            name = self._next_tenant()
            if name is None:
                return []
            state = self._tenants[name]
            self._shed_expired(name, state)
            results = state.server.step()
            if not results:
                # Everything queued for this tenant was expired; look for
                # the next most urgent tenant instead of spinning here.
                continue
            batch_completion = max(r.sim_latency for r in results)
            state.horizon += batch_completion
            for result in results:
                state.arrivals.pop(result.request.request_id, None)
            self.metrics.counter("batches_executed").inc()
            self.metrics.counter("requests_served").inc(len(results))
            return [TenantResult(tenant=name, result=r) for r in results]

    def drain(self) -> List[TenantResult]:
        """Serve until every tenant's queue is empty (shedding included)."""
        results: List[TenantResult] = []
        while self.queue_depth() > 0:
            served = self.step()
            if not served and self.queue_depth() == 0:
                break
            results.extend(served)
        return results

    # ------------------------------------------------------------------
    # reporting
    # ------------------------------------------------------------------
    def tenant_metrics(self, tenant: str) -> MetricsRegistry:
        """The tenant's own (un-namespaced) server registry."""
        return self._state(tenant).server.metrics

    def fleet_view(self) -> MetricsRegistry:
        """One merged registry: aggregate + per-tenant namespaced copies.

        Aggregate instruments keep their plain names (counters sum via
        :meth:`MetricsRegistry.merge`, exactly like the fleet router's
        view); each tenant's instruments additionally appear under
        ``tenant.<name>.<instrument>`` so dashboards can attribute load
        without losing the machine-wide totals.
        """
        merged = MetricsRegistry()
        merged.merge(self.metrics)
        for name, state in self._tenants.items():
            merged.merge(state.server.metrics)
            merged.merge(_namespaced(f"tenant.{name}", state.server.metrics))
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
        for name, state in self._tenants.items():
            books = state.server.accounting()
            row = {
                "accepted": books["admitted"],
                "served": books["served"],
                "shed": books["shed"],
                "queued": books["queued"],
                "horizon_units": state.horizon,
                "slo": state.slo.value,
            }
            per_tenant[name] = row
            for key in totals:
                totals[key] += row[key]
        return {"tenants": per_tenant, "totals": totals}

    def describe(self) -> str:
        lines = [self.placement.describe()]
        for name, state in self._tenants.items():
            lines.append(
                f"  {name}: slo={state.slo.value} "
                f"queue={state.server.queue_depth} "
                f"horizon={state.horizon} units"
            )
        return "\n".join(lines)


def _namespaced(prefix: str, registry: MetricsRegistry) -> MetricsRegistry:
    """A copy of ``registry`` with every instrument renamed ``prefix.*``."""
    out = MetricsRegistry()
    with registry._lock:
        counters = list(registry.counters.values())
        gauges = list(registry.gauges.values())
        histograms = list(registry.histograms.values())
    for counter in counters:
        with counter._lock:
            value = counter.value
        out.counter(f"{prefix}.{counter.name}").inc(value)
    for gauge in gauges:
        with gauge._lock:
            value = gauge.value
        out.gauge(f"{prefix}.{gauge.name}").add(value)
    for histogram in histograms:
        out.histogram(
            f"{prefix}.{histogram.name}", histogram.reservoir_size
        ).merge(histogram)
    return out
