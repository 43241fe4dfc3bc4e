"""Runtime failover: degrade, recompile-through-cache, replay.

The serving stack's recovery contract: a batch interrupted by a unit
failure is replayed in full on the degraded machine, the degraded plan is
cached under its own content-addressed key (repeat faults hit warm
plans), and exhausting the failover budget surfaces a typed error.
"""

from __future__ import annotations

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultEvent, FaultModel
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer
from repro.runtime.session import FaultRetryExhausted, InferenceSession
from repro.sim import executor as executor_module
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink


def make_server(config, **kwargs):
    kwargs.setdefault("graph_loader", lambda name: synthetic_benchmark(name))
    kwargs.setdefault("cache", PlanCache(capacity=8))
    return BatchingServer(config, **kwargs)


class TestSessionFailover:
    def test_pe_fault_fails_over_and_matches_cold_degraded_compile(
        self, graph, config
    ):
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 3)
        session = InferenceSession(graph, config, fault_model=fault_model)
        result = session.run(20)
        assert result.failovers == 1 and result.degraded
        assert session.faults_observed == 1
        assert session.active_config.num_pes == config.num_pes - 1
        assert session.active_config.pe_mask == tuple(
            range(1, config.num_pes)
        )
        # The replay must equal a cold compile on the degraded machine.
        degraded = config.degraded(range(1, config.num_pes))
        cold_plan = ParaConv(degraded).run(graph)
        cold = ScheduleExecutor(
            degraded, mode=SimMode.FULL_UNROLL
        ).execute(cold_plan, iterations=20, sink=NullSink())
        assert session.last_trace is not None
        assert (
            session.last_trace.aggregate_signature()
            == cold.aggregate_signature()
        )

    def test_repeat_fault_hits_warm_degraded_plan(self, graph, config):
        cache = PlanCache(capacity=8)
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 3)
        first = InferenceSession(
            graph, config, cache=cache, fault_model=fault_model
        )
        first.run(10)
        assert first.failover_recompiles == 1
        second = InferenceSession(
            graph, config, cache=cache, fault_model=fault_model
        )
        second.run(10)
        assert second.faults_observed == 1  # the fault still strikes
        assert second.failovers == 1  # and is still failed over
        assert second.failover_recompiles == 0  # but the plan is warm

    def test_vault_fault_reduces_vault_count(self, graph, config):
        fault_model = FaultModel.single(FAULT_UNIT_VAULT, 0, 2)
        session = InferenceSession(graph, config, fault_model=fault_model)
        result = session.run(10)
        assert result.failovers == 1
        assert session.active_config.num_vaults == 31
        assert session.active_config.vault_mask == tuple(range(1, 32))
        assert session.active_config.num_pes == config.num_pes

    def test_vault_degraded_config_simulates_its_survivors(
        self, graph, config, monkeypatch
    ):
        """A config degraded to vaults [0, 1] is a two-vault machine: the
        session's executor homes every result on vault 0 or 1 and keeps
        two vault timelines, not a default 32."""
        homes, timelines = [], []
        real_graph_prices = executor_module.graph_prices
        real_execute = executor_module._ScheduleRun.execute

        def price_spy(graph, config):
            prices = real_graph_prices(graph, config)
            homes.extend(price.vault for price in prices)
            return prices

        def execute_spy(run):
            timelines.append((len(run._vault_free), len(run._xout)))
            return real_execute(run)

        monkeypatch.setattr(executor_module, "graph_prices", price_spy)
        monkeypatch.setattr(executor_module._ScheduleRun, "execute", execute_spy)
        degraded = config.degraded(range(config.num_pes), [0, 1])
        session = InferenceSession(graph, degraded)
        result = session.run(4)
        assert timelines == [(2, 2)]
        assert set(homes) == {0, 1}
        assert result.degraded and session.degraded_mode

    def test_static_mask_degrades_before_first_compile(self, graph, config):
        """All PEs but one dead from the start: the session compiles
        directly on the surviving sub-machine, no failover needed."""
        fault_model = FaultModel.static(
            failed_pes=range(1, config.num_pes)
        )
        session = InferenceSession(graph, config, fault_model=fault_model)
        result = session.run(5)
        assert session.active_config.num_pes == 1
        assert session.faults_observed == 0  # proactive, not reactive
        assert result.failovers == 0 and result.degraded
        assert session.compilations == 1  # never compiled the healthy plan

    def test_second_strike_hits_replay(self, graph, config):
        """Two timed faults: the compacted trace must carry the second
        event into the replay, costing two failovers."""
        fault_model = FaultModel(
            events=(
                FaultEvent(2, FAULT_UNIT_PE, 0),
                FaultEvent(4, FAULT_UNIT_PE, 1),
            )
        )
        session = InferenceSession(graph, config, fault_model=fault_model)
        result = session.run(10)
        assert result.failovers == 2
        assert session.faults_observed == 2
        assert session.active_config.num_pes == config.num_pes - 2

    def test_retry_exhaustion_raises_typed_error(self, graph, config):
        fault_model = FaultModel(
            events=tuple(
                FaultEvent(1, FAULT_UNIT_PE, pe) for pe in range(3)
            )
        )
        session = InferenceSession(
            graph, config, fault_model=fault_model, max_retries=2
        )
        with pytest.raises(FaultRetryExhausted) as excinfo:
            session.run(10)
        error = excinfo.value
        assert error.attempts == 3
        assert error.max_retries == 2
        assert error.workload == graph.name
        assert error.last_fault.unit == FAULT_UNIT_PE

    def test_backoff_uses_injected_sleep(self, graph, config):
        slept = []
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 2)
        session = InferenceSession(
            graph,
            config,
            fault_model=fault_model,
            retry_backoff_seconds=0.5,
            sleep=slept.append,
        )
        session.run(10)
        assert slept == [0.5]  # linear backoff: base * attempt

    def test_metrics_counters_and_gauge(self, graph, config):
        metrics = MetricsRegistry()
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 2)
        session = InferenceSession(
            graph, config, metrics=metrics, fault_model=fault_model
        )
        session.run(10)
        snap = metrics.snapshot()
        assert snap["counters"]["faults_observed"] == 1
        assert snap["counters"]["failover_recompiles"] == 1
        assert snap["gauges"]["degraded_mode"] == 1.0

    def test_healthy_session_reports_no_degradation(self, graph, config):
        session = InferenceSession(graph, config)
        result = session.run(5)
        assert not result.degraded and result.failovers == 0
        assert not session.degraded_mode
        assert session.summary().count("degraded") == 0

    def test_invalid_retry_knobs(self, graph, config):
        with pytest.raises(ValueError):
            InferenceSession(graph, config, max_retries=-1)
        with pytest.raises(ValueError):
            InferenceSession(graph, config, retry_backoff_seconds=-0.1)


class TestServerFailover:
    def test_faulted_batch_is_served_degraded(self, config):
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 2)
        server = make_server(
            config, fault_model=fault_model, batch_window=4
        )
        for _ in range(3):
            server.submit("cat", iterations=2)
        results = server.drain()
        assert len(results) == 3
        assert all(r.batch.failovers == 1 for r in results)
        snap = server.metrics.snapshot()
        assert snap["counters"]["faults_observed"] == 1
        assert snap["counters"]["batches_failed_over"] == 1
        assert snap["gauges"]["degraded_mode"] == 1.0
        assert "fault tolerance" in server.stats_report()

    def test_armed_fault_strikes_a_live_session(self, graph, config):
        """A fault armed on a warm session fails over exactly as a session
        built with the fault model does."""
        model = FaultModel.single(FAULT_UNIT_PE, 0, 3)
        live = InferenceSession(graph, config)
        live.run(20)
        live.arm_fault(model)
        armed = live.run(20)
        built = InferenceSession(graph, config, fault_model=model).run(20)
        assert armed.failovers == built.failovers == 1
        assert live.active_config == config.degraded(list(range(1, 16)))
        assert (armed.realized_makespan, armed.stats) == (
            built.realized_makespan, built.stats
        )

    def test_armed_static_failure_degrades_up_front(self, graph, config):
        """Units an armed model marks dead from the start degrade the
        machine before the next batch, as at construction: no failover."""
        model = FaultModel.static(failed_pes=[0])
        live = InferenceSession(graph, config)
        live.run(20)
        live.arm_fault(model)
        assert live.active_config == config.degraded(list(range(1, 16)))
        armed = live.run(20)
        built = InferenceSession(graph, config, fault_model=model).run(20)
        assert armed.failovers == built.failovers == 0
        assert live.faults_observed == 0
        assert (armed.realized_makespan, armed.stats) == (
            built.realized_makespan, built.stats
        )

    def test_retry_exhaustion_counts_failed_requests(self, config):
        fault_model = FaultModel(
            events=tuple(
                FaultEvent(1, FAULT_UNIT_PE, pe) for pe in range(4)
            )
        )
        server = make_server(
            config, fault_model=fault_model, max_retries=1
        )
        server.submit("cat")
        server.submit("cat")
        with pytest.raises(FaultRetryExhausted):
            server.drain()
        snap = server.metrics.snapshot()
        assert snap["counters"]["requests_failed"] == 2
        assert snap["counters"]["batches_failed"] == 1
        # The failed batch closes the books: nothing reads as lost.
        books = server.accounting()
        assert (books["admitted"], books["failed"], books["lost"]) == (2, 2, 0)

    def test_healthy_server_unaffected_by_fault_plumbing(self, config):
        server = make_server(config)
        server.submit("cat", iterations=2)
        results = server.drain()
        assert len(results) == 1
        snap = server.metrics.snapshot()
        assert "faults_observed" not in snap["counters"]
        assert snap["gauges"]["degraded_mode"] == 0.0
