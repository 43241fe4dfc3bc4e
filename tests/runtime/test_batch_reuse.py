"""Batch reuse: a repeated ``run(N)`` on the same plan skips the simulator.

A plan is a static periodic schedule and every batch runs on a fresh
machine, so the trace of ``run(N)`` depends only on the plan, the active
machine, the fault model, the sim mode and ``N``. These tests spy on
``ScheduleExecutor.execute`` to see when the session simulates and hold
every served batch to the direct, uncached pipeline.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.fleet.store import SharedPlanStore
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.runtime import plan_cache
from repro.runtime.plan_cache import BATCH_TRACE_CAPACITY, PlanCache, TraceTable
from repro.runtime.server import BatchingServer
from repro.runtime.session import FaultRetryExhausted, InferenceSession
from repro.sim.executor import ExecutionTrace, RunStates, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

from tests.builders import direct_batch

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
    """Iteration counts of every ``ScheduleExecutor.execute`` call that
    does not resume from a converged boundary."""
    calls = []
    real = ScheduleExecutor.execute

    def spy(self, plan, *args, **kwargs):
        iterations = kwargs["iterations"]
        states = kwargs.get("states")
        boundary = None if states is None else states.boundary
        if boundary is None or not boundary.covers(iterations):
            calls.append(iterations)
        return real(self, plan, *args, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute", spy)
    return calls


def cold_batch(session, iterations, mode):
    """``run(iterations)`` on a fresh session over ``session``'s machine."""
    cold = InferenceSession(
        session.graph,
        session.active_config,
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
        # cat's steady run converges at round 11 and resumes N >= 12 only:
        # no stored trace or boundary covers N=11.
        session = InferenceSession(graph, config, sim_mode=mode)
        session.run(12)
        other = session.run(11)
        other_trace = session.last_trace
        session.run(12)
        assert executed == [12, 11]
        assert session.batches_resumed == 0
        assert aggregates(other) == aggregates(
            direct_batch(graph, config, 11, sim_mode=mode)
        )
        if mode is SimMode.FULL_UNROLL:
            assert session.prefix_resumes == 0
            return
        # The steady N=12 run found its first period candidate after
        # round 8, so its boundary keeps the prefix states of rounds 4
        # and 8: N=11 starts from round 8.
        assert session.prefix_resumes == 1
        assert session.last_trace.states.rounds == (4, 8)
        fresh = fresh_steady(session, 11)
        assert other_trace.rounds_simulated == fresh.rounds_simulated - 8
        assert trace_fields(other_trace) == trace_fields(fresh)

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


class TestTraceTableBound:
    def test_overfilled_table_evicts_least_recently_used(self):
        table = TraceTable()
        for key in range(BATCH_TRACE_CAPACITY):
            table[key] = f"trace-{key}"
        assert table.get(0) == "trace-0"  # a hit refreshes: 1 is oldest
        assert table.get("absent") is None
        table[BATCH_TRACE_CAPACITY] = "new"
        assert len(table) == BATCH_TRACE_CAPACITY
        assert 1 not in table
        assert list(table)[:2] == [2, 3]
        assert list(table)[-2:] == [0, BATCH_TRACE_CAPACITY]
        table[2] = "stored again"  # a store refreshes too: 3 is oldest
        table[BATCH_TRACE_CAPACITY + 1] = "newer"
        assert 3 not in table
        assert table[2] == "stored again"
        assert len(table) == BATCH_TRACE_CAPACITY

    @pytest.mark.parametrize("holder", ["session", "cache", "store"])
    def test_evicted_batch_equals_a_cold_batch(
        self, graph, config, executed, monkeypatch, tmp_path, holder
    ):
        monkeypatch.setattr(plan_cache, "BATCH_TRACE_CAPACITY", 2)
        cache = {
            "session": lambda: None,
            "cache": lambda: PlanCache(capacity=4),
            "store": lambda: SharedPlanStore(tmp_path).open_cache(),
        }[holder]()
        # A full unroll stores no boundary: the table holds traces only.
        session = InferenceSession(
            graph, config, cache=cache, sim_mode=SimMode.FULL_UNROLL
        )
        for iterations in (12, 13, 14):
            session.run(iterations)
        table, _key = session._trace_slot(12)
        assert isinstance(table, TraceTable)
        assert len(table) == 2
        result = session.run(12)  # evicted: simulated again
        session.run(14)  # still held
        assert executed == [12, 13, 14, 12]
        assert session.batches_reused == 1
        assert aggregates(result) == aggregates(
            cold_batch(session, 12, session.sim_mode)
        )


# ----------------------------------------------------------------------
# resuming from a stored steady-state boundary
# ----------------------------------------------------------------------
#: trace fields a resumed batch shares with a fresh steady run of its N.
RESUMED_FIELDS = tuple(
    f.name for f in dataclasses.fields(ExecutionTrace)
    if f.name not in ("sink", "states", "rounds_simulated")
)

#: the steady detector's confirm window, in rounds, at the default
#: ``steady_max_period`` of 8: ``2 * 8 + 2``.
CONFIRM_WINDOW = 18


def fresh_steady(session, iterations):
    """A fresh steady run of ``iterations`` on ``session``'s plan."""
    return ScheduleExecutor(session.active_config, mode=SimMode.STEADY_STATE).execute(
        session.plan, iterations=iterations, sink=NullSink(),
        fault_model=session._active_fault_model,
    )


def trace_fields(trace):
    return {name: getattr(trace, name) for name in RESUMED_FIELDS}


def flower_session(**kwargs):
    return InferenceSession(
        synthetic_benchmark("flower"), PimConfig(num_pes=16), **kwargs
    )


class TestResume:
    def test_other_size_resumes(self, graph, config, executed):
        session = InferenceSession(graph, config)
        session.run(12)
        assert session.last_trace.states.boundary.min_iterations == 12
        result = session.run(40)
        assert executed == [12]
        assert (session.batches_resumed, session.batches_reused) == (1, 0)
        assert trace_fields(session.last_trace) == trace_fields(
            fresh_steady(session, 40)
        )
        assert aggregates(result) == aggregates(
            direct_batch(graph, config, 40, sim_mode=SimMode.FULL_UNROLL)
        ) | {"sim_mode": "steady", "converged_round": 11,
             "rounds_fast_forwarded": 29}

    def test_repeat_remainder_simulates_no_rounds(self, executed):
        # stock-predict converges at round 20 with period 2: N=40 stores
        # the tail of remainder 0, N=41 simulates that of remainder 1.
        session = InferenceSession(
            synthetic_benchmark("stock-predict"), PimConfig(num_pes=16)
        )
        session.run(40)
        traces = {}
        for iterations in (41, 43, 60):
            session.run(iterations)
            traces[iterations] = session.last_trace
        assert executed == [40]
        assert session.batches_resumed == 3
        assert traces[41].rounds_simulated > 0
        assert traces[43].rounds_simulated == traces[60].rounds_simulated == 0
        for iterations, trace in traces.items():
            assert trace_fields(trace) == trace_fields(
                fresh_steady(session, iterations)
            )

    def test_boundary_is_stored_without_n(self, graph, config):
        cache = PlanCache(capacity=4)
        session = InferenceSession(graph, config, cache=cache)
        session.run(12)
        table, key = session._trace_slot(None)
        assert table is cache.batch_traces
        assert isinstance(table[key], RunStates)
        assert table[key] is session.last_trace.states
        assert table[key].boundary is not None
        assert session._trace_slot(12)[1] == (*key, 12)

    def test_boundary_counts_against_the_bound(
        self, graph, config, executed, monkeypatch
    ):
        monkeypatch.setattr(plan_cache, "BATCH_TRACE_CAPACITY", 1)
        session = InferenceSession(graph, config, cache=PlanCache(capacity=4))
        session.run(12)  # the trace, then the boundary evicts it
        table, key = session._trace_slot(None)
        assert list(table) == [key]
        session.run(12)
        assert executed == [12]
        assert (session.batches_resumed, session.batches_reused) == (1, 0)

    def test_boundary_of_one_machine_serves_no_other(self, graph, executed):
        cache = PlanCache(capacity=4)
        vaults = [PimConfig(num_pes=16, num_vaults=v) for v in (32, 8)]
        sessions = [InferenceSession(graph, c, cache=cache) for c in vaults]
        sessions[0].run(12)
        sessions[1].run(40)
        assert executed == [12, 40]
        assert sessions[1].batches_resumed == 0

    def test_fault_event_after_the_converged_round_keeps_no_boundary(self):
        session = flower_session()
        plan = session.plan
        executor = ScheduleExecutor(session.config, mode=SimMode.STEADY_STATE)
        # Flower's groups are 2 PEs wide: PE 15 is never hit.
        late = FaultModel.single(FAULT_UNIT_PE, 15, 40)
        trace = executor.execute(
            plan, iterations=60, sink=NullSink(), fault_model=late,
            states=RunStates(),
        )
        assert trace.rounds_fast_forwarded and trace.states.boundary is None
        early = FaultModel.single(FAULT_UNIT_PE, 15, 3)
        trace = executor.execute(
            plan, iterations=60, sink=NullSink(), fault_model=early,
            states=RunStates(),
        )
        assert trace.states.boundary is not None
        resumed = executor.execute(
            plan, iterations=77, sink=NullSink(), fault_model=early,
            states=trace.states,
        )
        fresh = executor.execute(
            plan, iterations=77, sink=NullSink(), fault_model=early
        )
        assert trace_fields(resumed) == trace_fields(fresh)
        assert resumed.rounds_simulated < fresh.rounds_simulated


def sweep_sessions():
    """Every registered workload at 16 PEs, then two degraded machines."""
    machine = PimConfig(num_pes=16)
    for name in WORKLOADS:
        yield name, lambda name=name: InferenceSession(load_workload(name), machine)
    yield "flower+static-fault", lambda: InferenceSession(
        load_workload("flower"), machine,
        fault_model=FaultModel.static(failed_pes=[0]),
    )
    yield "stock-predict+degraded", lambda: InferenceSession(
        load_workload("stock-predict"), machine.degraded(range(12), range(16)),
    )


@pytest.mark.parametrize(
    "build", [build for _, build in sweep_sessions()],
    ids=[name for name, _ in sweep_sessions()],
)
def test_resume_sweep(build, request):
    """A seeded sweep of N from 1 to three confirm windows past the
    boundary: each batch equals a fresh steady run of its N, a sample
    also the full unroll, and at most one simulation converges."""
    rng = random.Random(request.node.callspec.id)
    session = build()
    plan = session.plan
    first = plan.max_retiming + 4 * CONFIRM_WINDOW
    session.run(first)
    boundary = session.last_trace.states.boundary
    top = first if boundary is None else max(
        first, boundary.min_iterations + 3 * CONFIRM_WINDOW
    )
    samples = rng.sample(range(1, top + 1), 10 if boundary else 3)
    converging = int(session.last_trace.converged_round is not None)
    for iterations in samples:
        served = session.batches_resumed + session.batches_reused
        session.run(iterations)
        trace = session.last_trace
        if session.batches_resumed + session.batches_reused == served:
            converging += trace.converged_round is not None
        else:
            assert boundary is not None and boundary.covers(iterations)
        assert trace_fields(trace) == trace_fields(
            fresh_steady(session, iterations)
        ), iterations
    assert converging <= 1
    if boundary is not None:
        assert session.batches_resumed
    held = [n for n in samples if boundary is None or boundary.covers(n)][:1]
    for iterations in held:
        session.run(iterations)
        full = ScheduleExecutor(session.active_config).execute(
            plan, iterations=iterations, sink=NullSink(),
        )
        assert session.last_trace.aggregate_signature() == full.aggregate_signature()
