"""Batch reuse: a repeated ``run(N)`` on the same plan skips the simulator.

A plan is a static periodic schedule and every batch runs on a fresh
machine, so the trace of ``run(N)`` depends only on the plan, the active
machine, the fault model, the sim mode and ``N``. These tests spy on
``ScheduleExecutor.execute`` to see when the session simulates and hold
every served batch to the direct, uncached pipeline.
"""

from __future__ import annotations

import pytest

from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.runtime.plan_cache import PlanCache
from repro.runtime.server import BatchingServer
from repro.runtime.session import (
    FaultRetryExhausted,
    InferenceSession,
    direct_batch,
)
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode

MODES = [SimMode.FULL_UNROLL, SimMode.STEADY_STATE]

#: every BatchResult field that describes the simulated batch (all but
#: ``wall_seconds``, ``failovers`` and ``degraded``).
AGGREGATE_FIELDS = (
    "iterations",
    "analytic_makespan",
    "realized_makespan",
    "stats",
    "energy",
    "cache_spills",
    "max_lateness",
    "sim_mode",
    "converged_round",
    "rounds_fast_forwarded",
)


def aggregates(result):
    return {name: getattr(result, name) for name in AGGREGATE_FIELDS}


@pytest.fixture(autouse=True)
def executed(monkeypatch):
    """Iteration counts of every ``ScheduleExecutor.execute`` call."""
    calls = []
    real = ScheduleExecutor.execute

    def spy(self, plan, *args, **kwargs):
        calls.append(kwargs["iterations"])
        return real(self, plan, *args, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute", spy)
    return calls


def cold_batch(session, iterations, mode):
    """``run(iterations)`` on a fresh session over ``session``'s machine."""
    cold = InferenceSession(
        session.graph,
        session.active_config,
        num_vaults=session.active_num_vaults,
        sim_mode=mode,
    )
    return cold.run(iterations)


@pytest.mark.parametrize("mode", MODES, ids=lambda m: m.value)
class TestReuse:
    def test_repeat_simulates_once(self, graph, config, mode, executed):
        session = InferenceSession(graph, config, sim_mode=mode)
        session.run(12)
        trace = session.last_trace
        second = session.run(12)
        assert executed == [12]
        assert session.batches_reused == 1
        assert session.last_trace is trace
        assert second.failovers == 0

    def test_repeat_equals_first_and_direct(self, graph, config, mode):
        session = InferenceSession(graph, config, sim_mode=mode)
        first = session.run(12)
        second = session.run(12)
        direct = direct_batch(graph, config, 12, sim_mode=mode)
        assert aggregates(second) == aggregates(first) == aggregates(direct)

    def test_other_size_simulates_again(self, graph, config, mode, executed):
        session = InferenceSession(graph, config, sim_mode=mode)
        session.run(12)
        other = session.run(13)
        session.run(12)
        assert executed == [12, 13]
        assert aggregates(other) == aggregates(
            direct_batch(graph, config, 13, sim_mode=mode)
        )

    def test_swap_graph_simulates_again(
        self, graph, other_graph, config, mode, executed
    ):
        session = InferenceSession(graph, config, sim_mode=mode)
        session.run(12)
        session.swap_graph(other_graph)
        result = session.run(12)
        assert executed == [12, 12]
        assert session.batches_reused == 0
        assert aggregates(result) == aggregates(cold_batch(session, 12, mode))

    def test_failover_simulates_again(self, graph, config, mode, executed):
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 30)
        session = InferenceSession(
            graph, config, sim_mode=mode, fault_model=fault_model
        )
        assert session.run(4).failovers == 0  # the fault lies beyond N=4
        assert session.run(400).failovers == 1
        calls_before = len(executed)
        result = session.run(4)
        assert len(executed) == calls_before + 1
        assert result.degraded and result.failovers == 0
        assert session.batches_reused == 0
        assert aggregates(result) == aggregates(cold_batch(session, 4, mode))

    def test_forced_recompile_simulates_again(
        self, graph, config, mode, executed
    ):
        session = InferenceSession(graph, config, sim_mode=mode)
        session.run(12)
        old_plan = session.plan
        assert session.compile(force=True) is not old_plan
        result = session.run(12)
        assert executed == [12, 12]
        assert aggregates(result) == aggregates(cold_batch(session, 12, mode))


class TestReuseScope:
    def test_forced_cache_hit_keeps_the_table(self, graph, config, executed):
        session = InferenceSession(graph, config, cache=PlanCache(capacity=4))
        session.run(12)
        plan = session.plan
        assert session.compile(force=True) is plan
        session.run(12)
        assert executed == [12]

    def test_faulted_run_stores_nothing(self, graph, config, executed):
        session = InferenceSession(
            graph,
            config,
            fault_model=FaultModel.single(FAULT_UNIT_PE, 0, 3),
            max_retries=0,
        )
        for _ in range(2):
            with pytest.raises(FaultRetryExhausted):
                session.run(20)
        assert executed == [20, 20]
        assert session.batches_reused == 0

    def test_server_counts_reused_batches(self, graph, config):
        server = BatchingServer(
            config,
            cache=PlanCache(capacity=4),
            batch_window=2,
            graph_loader=lambda name: graph,
        )
        for _ in range(6):
            server.submit("cat")
        results = server.drain()
        counters = server.metrics.snapshot()["counters"]
        assert counters["batches_executed"] == 3
        assert counters["sim_batches_reused"] == 2
        busy = results[0].batch.realized_makespan
        assert counters["sim_units_busy"] == 3 * busy
