"""Cross-tenant scheduling: admission, SLO order, horizons, accounting."""

import pytest

from repro.fleet.slo import FleetAdmissionError, SloClass, SloPolicy
from repro.fleet.tenancy import TenancyError, TenantScheduler
from repro.pim.config import PimConfig
from repro.pim.tenancy import TenantPlacement
from repro.runtime.plan_cache import PlanCache


def make_scheduler(names=("a", "b"), num_pes=8, **kwargs):
    placement = TenantPlacement.even(PimConfig(num_pes=num_pes), list(names))
    kwargs.setdefault("batch_window", 2)
    return TenantScheduler(placement, **kwargs)


class TestConstruction:
    def test_one_server_per_tenant_on_partition_view(self):
        scheduler = make_scheduler()
        assert scheduler.tenants == ("a", "b")
        # Servers run on the *partition* views: physical masks present.
        assert scheduler.server_for("a").config.pe_mask == (0, 1, 2, 3)
        assert scheduler.server_for("b").config.pe_mask == (4, 5, 6, 7)

    def test_slo_for_unknown_tenant_rejected(self):
        with pytest.raises(TenancyError, match="unknown tenants"):
            make_scheduler(slos={"ghost": "interactive"})

    def test_default_slo_is_standard(self):
        scheduler = make_scheduler(slos={"a": "interactive"})
        assert scheduler.slo_for("a") is SloClass.INTERACTIVE
        assert scheduler.slo_for("b") is SloClass.STANDARD

    def test_unknown_tenant_queries_rejected(self):
        scheduler = make_scheduler()
        with pytest.raises(TenancyError, match="unknown tenant"):
            scheduler.server_for("ghost")
        with pytest.raises(TenancyError, match="unknown tenant"):
            scheduler.submit("ghost", "cat")


class TestAdmission:
    def test_queue_bound_is_per_tenant(self):
        policies = {SloClass.STANDARD: SloPolicy(max_queue_depth=2)}
        scheduler = make_scheduler(policies=policies)
        scheduler.submit("a", "cat")
        scheduler.submit("a", "cat")
        with pytest.raises(FleetAdmissionError) as excinfo:
            scheduler.submit("a", "cat")
        assert excinfo.value.slo is SloClass.STANDARD
        # Tenant b's budget is untouched by a's overload.
        scheduler.submit("b", "cat")
        counters = scheduler.fleet_view().snapshot()["counters"]
        assert counters["requests_rejected"] == 1
        assert counters["requests_accepted"] == 3

    def test_invalid_iterations_rejected_before_accounting(self):
        scheduler = make_scheduler()
        with pytest.raises(ValueError):
            scheduler.submit("a", "cat", iterations=0)
        assert scheduler.queue_depth() == 0


class TestScheduling:
    def test_strictest_slo_served_first(self):
        scheduler = make_scheduler(slos={"b": "interactive"})
        scheduler.submit("a", "cat")
        scheduler.submit("b", "cat")
        served = scheduler.step()
        assert served and all(r.worker_id == "b" for r in served)

    def test_horizon_advances_only_for_served_tenant(self):
        scheduler = make_scheduler()
        scheduler.submit("a", "cat")
        scheduler.submit("b", "car")
        served = scheduler.step()
        first = served[0].worker_id
        other = "b" if first == "a" else "a"
        assert scheduler.horizon(first) > 0
        assert scheduler.horizon(other) == 0

    def test_horizon_fair_share_tiebreak(self):
        scheduler = make_scheduler()
        for _ in range(2):
            scheduler.submit("a", "cat")
            scheduler.submit("b", "cat")
        first = scheduler.step()[0].worker_id
        # Same SLO class: the not-yet-served tenant goes next.
        second = scheduler.step()[0].worker_id
        assert {first, second} == {"a", "b"}

    def test_step_idle_returns_empty(self):
        assert make_scheduler().step() == []

    def test_drain_serves_everything(self):
        scheduler = make_scheduler()
        for _ in range(3):
            scheduler.submit("a", "cat")
            scheduler.submit("b", "car")
        results = scheduler.drain()
        assert len(results) == 6
        assert scheduler.queue_depth() == 0

    def test_results_carry_queueing_attribution(self):
        scheduler = make_scheduler(slos={"b": "interactive"})
        for iterations in (1, 5, 20):
            scheduler.submit("a", "cat", iterations=iterations)
            scheduler.submit("b", "car", iterations=iterations)
        served = 0
        while True:
            horizons = {t: scheduler.horizon(t) for t in scheduler.tenants}
            results = scheduler.step()
            if not results:
                break
            for result in results:
                assert result.dispatch_units == horizons[result.worker_id]
                assert (
                    result.completion_units - result.dispatch_units
                    == result.result.sim_latency
                )
            tenant = results[0].worker_id
            assert scheduler.horizon(tenant) == max(
                r.completion_units for r in results
            )
            served += len(results)
        assert served == 6

    def test_batches_coalesce_per_tenant(self):
        scheduler = make_scheduler(batch_window=4)
        for _ in range(4):
            scheduler.submit("a", "cat")
        served = scheduler.step()
        assert len(served) == 4
        assert {r.result.batch_id for r in served} == {served[0].result.batch_id}


class TestShedding:
    def test_expired_requests_shed_and_counted(self):
        policies = {
            SloClass.STANDARD: SloPolicy(max_queue_depth=100, deadline_units=1)
        }
        scheduler = make_scheduler(names=("a",), policies=policies)
        for _ in range(6):
            scheduler.submit("a", "cat", iterations=50)
        # First batch serves (age 0); its completion pushes the horizon
        # far past the 1-unit deadline, so the rest shed at dispatch.
        scheduler.drain()
        accounting = scheduler.accounting()
        row = accounting["tenants"]["a"]
        assert row["accepted"] == 6
        assert row["served"] == 2
        assert row["shed"] == 4
        assert row["queued"] == 0
        counters = scheduler.fleet_view().snapshot()["counters"]
        assert counters["requests_shed"] == 4

    def test_no_deadline_means_no_shedding(self):
        scheduler = make_scheduler(names=("a",))
        for _ in range(4):
            scheduler.submit("a", "cat", iterations=50)
        scheduler.drain()
        assert scheduler.accounting()["tenants"]["a"]["shed"] == 0


class TestAccountingAndMetrics:
    def test_accounting_closes_per_tenant_and_total(self):
        scheduler = make_scheduler()
        for _ in range(3):
            scheduler.submit("a", "cat")
            scheduler.submit("b", "car")
        scheduler.step()
        accounting = scheduler.accounting()
        for row in accounting["tenants"].values():
            assert row["accepted"] == row["served"] + row["shed"] + row["queued"]
        totals = accounting["totals"]
        assert totals["accepted"] == 6
        assert totals["served"] + totals["queued"] == 6

    def test_fleet_view_counts_each_request_once(self):
        policies = {
            SloClass.STANDARD: SloPolicy(max_queue_depth=100, deadline_units=1)
        }
        scheduler = make_scheduler(policies=policies)
        for _ in range(3):
            scheduler.submit("a", "cat", iterations=50)
            scheduler.submit("b", "car")
        scheduler.drain()
        totals = scheduler.accounting()["totals"]
        assert (totals["accepted"], totals["served"], totals["shed"]) == (6, 4, 2)
        counters = scheduler.fleet_view().snapshot()["counters"]
        assert counters["requests_accepted"] == totals["accepted"]
        assert counters["requests_served"] == totals["served"]
        assert counters["requests_shed"] == totals["shed"]
        assert counters["batches_executed"] == sum(
            scheduler.server_for(t).metrics.snapshot()["counters"][
                "batches_executed"
            ]
            for t in scheduler.tenants
        )
        assert counters["inferences_served"] == 50 * 2 + 2

    def test_shared_cache_holds_one_plan_per_tenant(self):
        cache = PlanCache()
        scheduler = make_scheduler(cache=cache)
        # Same workload for both tenants: partition fingerprints must
        # still give each tenant its own cache entry.
        scheduler.submit("a", "cat")
        scheduler.submit("b", "cat")
        scheduler.drain()
        assert len(cache) == 2

    def test_tenant_metrics_are_per_server(self):
        scheduler = make_scheduler()
        scheduler.submit("a", "cat")
        scheduler.drain()
        assert (
            scheduler.server_for("a").metrics.snapshot()["counters"][
                "requests_served"
            ]
            == 1
        )
        assert (
            "requests_served"
            not in scheduler.server_for("b").metrics.snapshot()["counters"]
        )

    def test_describe_mentions_every_tenant(self):
        scheduler = make_scheduler()
        text = scheduler.describe()
        assert "a:" in text and "b:" in text


class TestEquivalencePin:
    """One fixed three-tenant run, step by step.

    Pins the dispatch order (strictest SLO, then horizon, then name),
    deadline shedding at dispatch and the per-tenant virtual clocks.
    Reads only what every served result carries (``.result``) and the
    tenant servers' own books, so it pins behaviour, not result types.
    """

    NAMES = ("a", "b", "c")

    def _step(self, scheduler):
        def books():
            return {t: scheduler.server_for(t).accounting() for t in self.NAMES}

        before = books()
        results = scheduler.step()
        after = books()
        served = [
            t for t in self.NAMES if after[t]["served"] > before[t]["served"]
        ]
        return (
            served[0] if served else None,
            [r.result.request.request_id for r in results],
            [r.result.sim_latency for r in results],
            sum(after[t]["shed"] - before[t]["shed"] for t in self.NAMES),
            [scheduler.horizon(t) for t in self.NAMES],
        )

    def test_three_tenant_trace_is_pinned(self):
        from repro.graph.generators import synthetic_benchmark

        policies = {
            SloClass.INTERACTIVE: SloPolicy(16, deadline_units=5),
            SloClass.STANDARD: SloPolicy(16, deadline_units=100),
        }
        scheduler = make_scheduler(
            names=self.NAMES, num_pes=12, slos={"b": "interactive"},
            policies=policies, graph_loader=synthetic_benchmark,
        )
        for tenant, workload, iterations in [
            ("a", "cat", 1), ("a", "cat", 5), ("a", "car", 20),
            ("b", "flower", 1), ("b", "flower", 5), ("b", "flower", 20),
            ("b", "flower", 1), ("c", "car", 5), ("c", "car", 1),
            ("c", "cat", 20),
        ]:
            scheduler.submit(tenant, workload, iterations=iterations)
        trace = [self._step(scheduler), self._step(scheduler)]
        # Later arrivals are stamped with their tenant's horizon.
        for tenant, workload, iterations in [
            ("a", "car", 1), ("b", "flower", 5), ("c", "cat", 1),
            ("b", "flower", 1),
        ]:
            scheduler.submit(tenant, workload, iterations=iterations)
        while True:
            trace.append(self._step(scheduler))
            if not trace[-1][1]:
                break
        assert trace == [
            ("b", [1, 2], [192, 240], 0, [0, 240, 0]),
            # b's two remaining requests expired at 240: shed, then a.
            ("a", [1, 2], [54, 72], 2, [72, 240, 0]),
            ("b", [5, 6], [240, 240], 0, [72, 480, 0]),
            ("c", [1, 2], [112, 112], 0, [72, 480, 112]),
            ("a", [3, 4], [210, 224], 0, [296, 480, 112]),
            # c's last two expired at 112: shed, nothing left to serve.
            (None, [], [], 2, [296, 480, 112]),
        ]
        totals = scheduler.accounting()["totals"]
        assert totals == {"accepted": 14, "served": 10, "shed": 4, "queued": 0}
