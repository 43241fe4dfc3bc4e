"""Tests for the steady-state engine: convergence, fast-forward, fidelity.

The contract under test: for any plan and any ``N``, the steady-state
engine's aggregate signature equals the full unroll's exactly, and when
the machine's round-boundary fingerprint recurs the engine skips the
converged rounds in O(1) while reporting what it skipped.
"""

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import CountingSink, NullSink


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16)


@pytest.fixture(scope="module")
def plans(machine):
    return {
        name: ParaConv(machine).run(synthetic_benchmark(name))
        for name in ("cat", "flower", "car")
    }


def _signatures(machine, plan, iterations):
    full = ScheduleExecutor(machine, mode=SimMode.FULL_UNROLL).execute(
        plan, iterations=iterations, sink=NullSink()
    )
    steady = ScheduleExecutor(machine, mode=SimMode.STEADY_STATE).execute(
        plan, iterations=iterations, sink=NullSink()
    )
    return full, steady


class TestSimModes:
    def test_exactly_two_modes(self):
        assert [mode.value for mode in SimMode] == ["full", "steady"]

    def test_from_name_aliases(self):
        assert SimMode.from_name("full") is SimMode.FULL_UNROLL
        assert SimMode.from_name("steady") is SimMode.STEADY_STATE
        assert SimMode.from_name(SimMode.STEADY_STATE) is SimMode.STEADY_STATE
        assert SimMode.from_name("Full-Unroll") is SimMode.FULL_UNROLL
        assert SimMode.from_name("steady_state") is SimMode.STEADY_STATE
        with pytest.raises(ValueError, match="unknown") as excinfo:
            SimMode.from_name("warp-speed")
        assert "full" in str(excinfo.value)
        assert "steady" in str(excinfo.value)

    @pytest.mark.parametrize(
        "dropped",
        [
            "unroll", "fast", "array", "array_steady", "columnar_full",
            "columnar", "columnar_steady", "columnar-steady",
        ],
    )
    def test_unused_aliases_are_gone(self, dropped):
        with pytest.raises(ValueError, match="choose one of: full, steady"):
            SimMode.from_name(dropped)


class TestAggregateEquivalence:
    @pytest.mark.parametrize("iterations", [1, 20, 300, 1000])
    @pytest.mark.parametrize("name", ["cat", "flower", "car"])
    def test_signatures_match_full_unroll(self, machine, plans, name, iterations):
        full, steady = _signatures(machine, plans[name], iterations)
        assert steady.aggregate_signature() == full.aggregate_signature()

    def test_realized_makespan_identical(self, machine, plans):
        full, steady = _signatures(machine, plans["flower"], 500)
        assert steady.realized_makespan == full.realized_makespan
        assert steady.max_lateness == full.max_lateness

    def test_greedy_allocator_plans_equivalent(self, machine):
        plan = ParaConv(machine, allocator_name="greedy").run(
            synthetic_benchmark("flower")
        )
        full, steady = _signatures(machine, plan, 200)
        assert steady.aggregate_signature() == full.aggregate_signature()


class TestConvergenceObservability:
    def test_fast_forward_engages_on_periodic_workload(self, machine, plans):
        _, steady = _signatures(machine, plans["flower"], 1000)
        assert steady.converged_round is not None
        assert steady.converged_period is not None
        assert steady.converged_period >= 1
        # Nearly the whole horizon is spliced, not simulated.
        assert steady.rounds_fast_forwarded >= 900
        assert steady.steady_fingerprint is not None
        # Simulated + skipped covers the whole horizon.
        full, _ = _signatures(machine, plans["flower"], 1)
        assert steady.rounds_simulated + steady.rounds_fast_forwarded > 900

    def test_full_unroll_reports_no_convergence(self, machine, plans):
        full, _ = _signatures(machine, plans["flower"], 100)
        assert full.converged_round is None
        assert full.converged_period is None
        assert full.rounds_fast_forwarded == 0

    def test_short_horizon_never_fast_forwards(self, machine, plans):
        plan = plans["cat"]
        steady = ScheduleExecutor(machine, mode=SimMode.STEADY_STATE).execute(
            plan, iterations=2, sink=NullSink()
        )
        assert steady.rounds_fast_forwarded == 0

    def test_counting_sink_sees_the_splice(self, machine, plans):
        sink = CountingSink()
        ScheduleExecutor(machine, mode=SimMode.STEADY_STATE).execute(
            plans["flower"], iterations=1000, sink=sink
        )
        assert sink.fast_forwards >= 1
        assert sink.instances_skipped > 0
        # All work accounted for: emitted + skipped == V * N.
        graph = plans["flower"].graph
        assert sink.instances_total == graph.num_vertices * 1000

    def test_detector_knobs_validated(self, machine):
        from repro.sim.engine import SimulationError

        with pytest.raises(SimulationError):
            ScheduleExecutor(machine, steady_max_period=0)
        with pytest.raises(SimulationError):
            ScheduleExecutor(machine, steady_confirm_budget=0)

