"""Prefix resumes: a steady batch starts from the longest run so far.

A steady run that has not found a period candidate yet exports its state
at sparse round boundaries into the plan's store of round states
(:class:`~repro.sim.executor.RunStates`).
Instance ``l`` of an op runs in round ``l + R_max - R(i)`` and iteration
``r`` is materialized at round ``r`` only when ``r <= N``, so the state
at round ``r`` serves every ``N >= r``. These tests hold every run that
starts from a prefix to a fresh steady run of its ``N``, pin where it
starts, and check how the session stores and scopes the states.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.runtime import plan_cache
from repro.runtime.plan_cache import PlanCache
from repro.runtime.session import FaultRetryExhausted, InferenceSession
from repro.sim import executor as executor_module
from repro.sim.engine import SimulationError
from repro.sim.executor import RunStates, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import InMemorySink, NullSink

from tests.runtime.test_batch_reuse import trace_fields as fields

MACHINE = PimConfig(num_pes=16)


def fresh(plan, iterations, fault_model=None, machine=MACHINE):
    return ScheduleExecutor(machine, mode=SimMode.STEADY_STATE).execute(
        plan, iterations=iterations, sink=NullSink(), fault_model=fault_model
    )


def steady(machine=MACHINE):
    return ScheduleExecutor(machine, mode=SimMode.STEADY_STATE)


def compile_plan(name, liveness_aware=False):
    return ParaConv(MACHINE, liveness_aware=liveness_aware).run(
        load_workload(name)
    )


def run_chain(plan, sizes, executor=None):
    """Run ``sizes`` in order, each from the prefix states of the runs
    before it; returns ``(N, start round, trace)``. The store passed on
    drops its boundary, so every run starts from a prefix state or round
    one (``test_batch_reuse.test_resume_sweep`` covers boundary resumes)."""
    executor = executor or steady()
    states = RunStates()
    runs = []
    for iterations in sizes:
        state = states.latest(iterations)
        trace = executor.execute(
            plan, iterations=iterations, sink=NullSink(), states=states
        )
        runs.append((iterations, 0 if state is None else state.round, trace))
        states = dataclasses.replace(trace.states, boundary=None)
    return runs


def assert_chain_equals_fresh(plan, sizes):
    for iterations, start, trace in run_chain(plan, sizes):
        reference = fresh(plan, iterations)
        assert fields(trace) == fields(reference), (iterations, start)
        assert trace.rounds_simulated == reference.rounds_simulated - start


#: plans whose detector finds its first candidate a few rounds after a
#: prefix round: a run from that prefix converges only when the counter
#: window comes with it.
@pytest.mark.parametrize("name, sizes", [
    ("flower", (16, 13, 40, 9, 12)),
    ("cat", (12, 11, 30, 7)),
    ("stock-predict", (14, 60, 13)),
    ("speech-1", (16, 13, 50)),
])
def test_runs_from_prefixes_equal_fresh_runs(name, sizes):
    assert_chain_equals_fresh(compile_plan(name), sizes)


def seeded_cases():
    rng = random.Random(21)
    names = rng.sample(sorted(WORKLOADS), 6)
    for index, name in enumerate(names):
        liveness_aware = bool(index % 2)
        sizes = tuple(rng.sample(range(1, 81), 4))
        yield pytest.param(
            name, liveness_aware, sizes,
            id=f"{name}-{'liveness' if liveness_aware else 'dp'}",
        )


@pytest.mark.parametrize("name, liveness_aware, sizes", list(seeded_cases()))
def test_seeded_sweep_equals_fresh_runs(name, liveness_aware, sizes):
    """A seeded subset of the registered workloads, both plan kinds, and
    sizes in 1..80 in random order."""
    assert_chain_equals_fresh(compile_plan(name, liveness_aware), sizes)


class TestExport:
    def test_only_a_run_given_a_store_exports(self, monkeypatch):
        """A steady run given no store exports nothing; one given an empty
        store exports prefix states and a boundary, and each state loads
        back to the canonical form the run had at its round, at the
        exporting run's key layout and at a wider one."""
        plan = compile_plan("flower")
        assert fresh(plan, 40).states is None
        canonical = {}
        real = executor_module._ScheduleRun._capture

        def spy(self, boundary_round, snapshots):
            canonical[boundary_round] = self._canonical(
                boundary_round * self.period, boundary_round
            )
            return real(self, boundary_round, snapshots)

        monkeypatch.setattr(executor_module._ScheduleRun, "_capture", spy)
        states = steady().execute(
            plan, iterations=40, sink=NullSink(), states=RunStates()
        ).states
        assert states.prefixes and states.boundary is not None
        for state in (*states.prefixes, states.boundary.state):
            for iterations in (40, 5000):
                run = executor_module._ScheduleRun(
                    MACHINE, plan, iterations, SimMode.STEADY_STATE, NullSink()
                )
                run._load(state)
                assert run._canonical(
                    state.round * run.period, state.round
                ) == canonical[state.round], (state.round, iterations)


class TestStartRound:
    def test_prefix_at_round_n_serves_n(self):
        # randwired-ba-64 does not converge within 24 rounds: N=16 exports
        # rounds 4, 8, 12 and 16, and N=12 starts from round 12 itself.
        plan = compile_plan("randwired-ba-64")
        runs = run_chain(plan, (16, 12, 11))
        assert runs[0][2].states.rounds == (4, 8, 12, 16)
        assert [start for _, start, _ in runs] == [0, 12, 8]
        for iterations, start, trace in runs:
            reference = fresh(plan, iterations)
            assert trace.rounds_simulated == reference.rounds_simulated - start
            assert fields(trace) == fields(reference)

    def test_prefix_past_n_is_not_used(self):
        plan = compile_plan("randwired-ba-64")
        runs = run_chain(plan, (16, 15))
        assert runs[1][1] == 12
        assert fields(runs[1][2]) == fields(fresh(plan, 15))

    def test_short_run_exports_its_own_round(self):
        # N <= R_max + 3 cannot arm a candidate: the run detects only to
        # export, and a later run starts from its round N.
        plan = compile_plan("flower")
        assert 5 <= plan.max_retiming + 3
        runs = run_chain(plan, (5, 40))
        assert runs[0][2].states.rounds == (4, 5)
        assert runs[1][1] == 5
        assert fields(runs[0][2]) == fields(fresh(plan, 5))
        assert fields(runs[1][2]) == fields(fresh(plan, 40))

    def test_no_state_after_the_first_candidate(self):
        # protein at 16 PEs finds a candidate at round 16 it cannot arm
        # within N=16: round 16 is not exported, and N=20 arms it.
        plan = compile_plan("protein")
        runs = run_chain(plan, (16, 20))
        assert runs[0][2].states.rounds == (4, 8, 12)
        assert runs[1][1] == 12
        assert fields(runs[1][2]) == fields(fresh(plan, 20))

    def test_off_grid_rounds_keep_only_the_latest(self):
        plan = compile_plan("cat")
        runs = run_chain(plan, (5, 6, 3))
        assert [trace.states.rounds for _, _, trace in runs] == [
            (4, 5), (4, 6), (4, 6),
        ]


class TestTables:
    def test_narrow_tables_are_rebuilt_for_a_wider_n(self):
        """N=12 builds the tables at a 4-bit iteration field (N <= 14);
        N=40 does not fit it, so the executor rebuilds them and repacks
        the heap keys of the prefix state it loads."""
        plan = compile_plan("randwired-ba-64")
        executor = steady()
        narrow = executor.execute(
            plan, iterations=12, sink=NullSink(), states=RunStates()
        )
        assert narrow.states.tables.keys.iteration_bits == 4
        wide = executor.execute(
            plan, iterations=40, sink=NullSink(), states=narrow.states
        )
        assert wide.states.tables is not narrow.states.tables
        assert wide.states.tables.keys.iteration_bits == 6
        assert fields(wide) == fields(fresh(plan, 40))
        again = executor.execute(
            plan, iterations=13, sink=NullSink(), states=wide.states
        )
        assert again.states.tables is wide.states.tables
        assert fields(again) == fields(fresh(plan, 13))

    def test_a_run_on_tables_too_narrow_raises(self):
        plan = compile_plan("flower")
        tables = executor_module._StaticTables(MACHINE, plan, 6)
        with pytest.raises(SimulationError, match="overflows a 3-bit"):
            executor_module._ScheduleRun(
                MACHINE, plan, 7, SimMode.STEADY_STATE, NullSink(),
                tables=tables,
            )

    def test_executor_keeps_one_plan_s_tables(self, monkeypatch):
        builds = []
        real = executor_module._StaticTables.__init__

        def spy(self, config, result, iterations):
            builds.append(iterations)
            real(self, config, result, iterations)

        monkeypatch.setattr(executor_module._StaticTables, "__init__", spy)
        flower, cat = compile_plan("flower"), compile_plan("cat")
        executor = ScheduleExecutor(MACHINE)
        for plan, iterations in (
            (flower, 5), (flower, 6), (flower, 7), (flower, 20),
            (flower, 9), (cat, 9), (flower, 9),
        ):
            executor.execute(plan, iterations=iterations, sink=NullSink())
        assert builds == [5, 7, 20, 9, 9]

    def test_boundary_carries_its_tables_to_another_executor(self, monkeypatch):
        plan = compile_plan("flower")
        states = steady().execute(
            plan, iterations=40, sink=NullSink(), states=RunStates()
        ).states
        assert states.boundary is not None and states.tables is not None
        builds = []
        real = executor_module._StaticTables.__init__
        monkeypatch.setattr(
            executor_module._StaticTables, "__init__",
            lambda self, *args: builds.append(args) or real(self, *args),
        )
        resumed = steady().execute(
            plan, iterations=50, sink=NullSink(), states=states
        )
        assert builds == []
        assert fields(resumed) == fields(fresh(plan, 50))


class TestMisuse:
    def test_full_unroll_takes_no_prefixes(self):
        plan = compile_plan("cat")
        with pytest.raises(SimulationError, match="steady-state runs"):
            ScheduleExecutor(MACHINE).execute(
                plan, iterations=5, sink=NullSink(), states=RunStates()
            )

    def test_a_run_that_keeps_records_takes_no_prefixes(self):
        plan = compile_plan("cat")
        with pytest.raises(SimulationError, match="NullSink"):
            steady().execute(
                plan, iterations=5, sink=InMemorySink(),
                states=RunStates(),
            )

    def test_another_detector_window_is_refused(self):
        plan = compile_plan("cat")
        states = steady().execute(
            plan, iterations=12, sink=NullSink(), states=RunStates()
        ).states
        other = ScheduleExecutor(
            MACHINE, mode=SimMode.STEADY_STATE, steady_max_period=4
        )
        with pytest.raises(SimulationError, match="steady_max_period 8"):
            other.execute(plan, iterations=11, sink=NullSink(), states=states)


# ----------------------------------------------------------------------
# the session
# ----------------------------------------------------------------------
@pytest.fixture
def executed(monkeypatch):
    """``(N, prefix start round)`` of every ``ScheduleExecutor.execute``."""
    calls = []
    real = ScheduleExecutor.execute

    def spy(self, plan, *args, **kwargs):
        states = kwargs.get("states")
        state = None if states is None else states.latest(
            kwargs["iterations"]
        )
        calls.append((kwargs["iterations"], state and state.round))
        return real(self, plan, *args, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute", spy)
    return calls


def randwired_session(**kwargs):
    return InferenceSession(load_workload("randwired-ba-64"), MACHINE, **kwargs)


class TestSession:
    def test_shorter_batch_starts_from_the_longer_run(self, executed):
        session = randwired_session()
        session.run(16)
        session.run(13)
        trace = session.last_trace
        session.run(13)
        assert executed == [(16, None), (13, 12)]
        assert session.prefix_resumes == 1
        assert (session.batches_resumed, session.batches_reused) == (0, 1)
        assert fields(trace) == fields(fresh(session.plan, 13))

    def test_prefixes_share_the_boundary_slot(self):
        cache = PlanCache(capacity=4)
        session = randwired_session(cache=cache)
        session.run(16)
        table, key = session._trace_slot(None)
        assert isinstance(table[key], RunStates)
        assert table[key] is session.last_trace.states
        assert table[key].boundary is None
        session.run(40)  # converges: the store gains a boundary
        boundary = table[key].boundary
        assert boundary is not None
        assert table[key].rounds == (4, 8, 12, 16)
        session.run(13)  # below the boundary: from its prefix states
        assert table[key].boundary is boundary
        assert session.prefix_resumes == 2

    def test_prefix_counts_against_the_bound(self, executed, monkeypatch):
        monkeypatch.setattr(plan_cache, "BATCH_TRACE_CAPACITY", 1)
        cache = PlanCache(capacity=4)
        session = randwired_session(cache=cache)
        session.run(16)  # the trace, then the prefix states evict it
        table, key = session._trace_slot(None)
        assert list(table) == [key]
        session.run(15)  # from round 12; the states are stored last again
        assert list(table) == [key]
        other = InferenceSession(load_workload("flower"), MACHINE, cache=cache)
        other.run(5)  # evicts them
        assert key not in table
        session.run(14)
        assert [start for _, start in executed] == [None, 12, None, None]
        assert session.prefix_resumes == 1

    def test_no_sharing_across_vault_counts(self, executed):
        cache = PlanCache(capacity=4)
        graph = load_workload("randwired-ba-64")
        sessions = [
            InferenceSession(graph, PimConfig(num_pes=16, num_vaults=v),
                             cache=cache)
            for v in (32, 8)
        ]
        sessions[0].run(16)
        sessions[1].run(13)
        assert executed == [(16, None), (13, None)]
        assert sessions[1].prefix_resumes == 0

    def test_no_sharing_across_fault_models(self, executed):
        cache = PlanCache(capacity=4)
        graph = load_workload("randwired-ba-64")
        late = FaultModel.single(FAULT_UNIT_PE, 15, 500)
        plain = InferenceSession(graph, MACHINE, cache=cache)
        faulted = InferenceSession(graph, MACHINE, cache=cache, fault_model=late)
        plain.run(16)
        faulted.run(13)
        faulted.run(12)
        assert executed == [(16, None), (13, None), (12, 12)]
        assert faulted.prefix_resumes == 1
        assert fields(faulted.last_trace) == fields(
            fresh(faulted.plan, 12, fault_model=late)
        )

    def test_faulted_run_stores_no_prefix(self, executed):
        session = randwired_session(
            fault_model=FaultModel.single(FAULT_UNIT_PE, 0, 14), max_retries=0
        )
        for _ in range(2):
            with pytest.raises(FaultRetryExhausted):
                session.run(16)
        table, key = session._trace_slot(None)
        assert table.peek(key) is None
        assert executed == [(16, None), (16, None)]
        assert session.prefix_resumes == 0

    def test_full_unroll_stores_no_prefix(self, executed):
        session = randwired_session(sim_mode=SimMode.FULL_UNROLL)
        session.run(16)
        session.run(13)
        assert executed == [(16, None), (13, None)]
        assert session._trace_slot(None)[0].peek(None) is None
        assert session.prefix_resumes == 0
