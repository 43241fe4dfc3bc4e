"""Steady runs and resumes on a machine whose cache transfers take time.

On the default machine (8192 bytes per unit) every cache transfer of the
registered workloads takes zero units, so each one lands the moment it is
produced. At 2048 bytes per unit, with 64 KiB of cache per PE so the
plans still converge, many cache results land a unit or more after
their producer finishes and wait for their consumer's pFIFO like an
eDRAM fetch does. On that machine, at 16 PEs:

* a steady run equals the full unroll;
* a run resumed from a converged boundary equals a fresh steady run;
* the full unroll and the steady run's convergence equal the values the
  simulator produced when every arrival was an event on the global heap.
"""

from __future__ import annotations

import functools

import pytest

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from repro.sim.executor import RunStates, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import InMemorySink, NullSink
from tests.runtime.test_batch_reuse import trace_fields

MACHINE = PimConfig(
    num_pes=16, cache_bytes_per_unit=2048, cache_bytes_per_pe=65536
)
WORKLOADS = ("flower", "stock-predict", "speech-2")
ITERATIONS = 80

#: frozen from the simulator that queued every arrival on the global heap.
EXPECTED = {
    "flower": {
        "signature": {
            "iterations": 80,
            "analytic_makespan": 2064,
            "realized_makespan": 2064,
            "stats": {
                "cache_accesses": 1840,
                "cache_bytes": 4358000,
                "edram_accesses": 2240,
                "edram_bytes": 4661120,
                "alu_ops": 3600,
                "fifo_pushes": 3140,
            },
            "cache_peak_slots": 127,
            "cache_spills": 0,
            "events_processed": 7440,
            "num_instances": 1680,
            "num_transfers": 4080,
            "busy_units": 3600,
            "lateness_total": 0,
            "lateness_max": 0,
            "pes_used": (0, 1),
            "energy_total_pj": 32326520.0,
        },
        "steady": (13, 1, "0059d71a60306d49"),
    },
    "stock-predict": {
        "signature": {
            "iterations": 80,
            "analytic_makespan": 7832,
            "realized_makespan": 7832,
            "stats": {
                "cache_accesses": 3518,
                "cache_bytes": 9584511,
                "edram_accesses": 13922,
                "edram_bytes": 29672529,
                "alu_ops": 14000,
                "fifo_pushes": 4552,
            },
            "cache_peak_slots": 250,
            "cache_spills": 2,
            "events_processed": 30720,
            "num_instances": 6640,
            "num_transfers": 17440,
            "busy_units": 14000,
            "lateness_total": 22223,
            "lateness_max": 10,
            "pes_used": (0, 1),
            "energy_total_pj": 187626685.0,
        },
        "steady": (16, 1, "b9545f0165fb5e0a"),
    },
    "speech-2": {
        "signature": {
            "iterations": 80,
            "analytic_makespan": 32680,
            "realized_makespan": 32683,
            "stats": {
                "cache_accesses": 2960,
                "cache_bytes": 8038880,
                "edram_accesses": 75520,
                "edram_bytes": 159853920,
                "alu_ops": 60720,
                "fifo_pushes": 14984,
            },
            "cache_peak_slots": 154,
            "cache_spills": 0,
            "events_processed": 137520,
            "num_instances": 29520,
            "num_transfers": 78480,
            "busy_units": 60720,
            "lateness_total": 830481,
            "lateness_max": 124,
            "pes_used": (0, 1),
            "energy_total_pj": 967192760.0,
        },
        "steady": (39, 3, "b35e4fb6287f8061"),
    },
}


@functools.lru_cache(maxsize=None)
def plan_of(name):
    return ParaConv(MACHINE).run(load_workload(name))


def steady(name, iterations):
    return ScheduleExecutor(MACHINE, mode=SimMode.STEADY_STATE).execute(
        plan_of(name), iterations=iterations, sink=NullSink()
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_cache_transfers_take_time(name):
    trace = ScheduleExecutor(MACHINE).execute(
        plan_of(name), iterations=3, sink=InMemorySink()
    )
    assert any(
        t.kind.value == "cache" and t.completed > t.issued
        for t in trace.transfers
    )


@pytest.mark.parametrize("name", WORKLOADS)
def test_steady_equals_full_unroll_and_frozen_values(name):
    full = ScheduleExecutor(MACHINE).execute(
        plan_of(name), iterations=ITERATIONS, sink=NullSink()
    )
    trace = steady(name, ITERATIONS)
    assert trace.rounds_fast_forwarded > 0
    assert trace.aggregate_signature() == full.aggregate_signature()
    expected = EXPECTED[name]
    assert full.aggregate_signature() == expected["signature"]
    assert (
        trace.converged_round, trace.converged_period, trace.steady_fingerprint
    ) == expected["steady"]


@pytest.mark.parametrize("name", WORKLOADS)
def test_resume_equals_fresh_steady_run(name):
    """A boundary serves its own key layout and much wider ones: the one
    a run of N=30 exports (a 5-bit iteration field) resumes N=5000 (13
    bits). speech-2 converges at round 39, past N=30."""
    for exported_at in (ITERATIONS, 30):
        states = ScheduleExecutor(MACHINE, mode=SimMode.STEADY_STATE).execute(
            plan_of(name), iterations=exported_at, sink=NullSink(),
            states=RunStates(),
        ).states
        if states.boundary is None:
            assert exported_at < EXPECTED[name]["steady"][0]
            continue
        assert states.tables.keys.iteration_bits == {ITERATIONS: 7, 30: 5}[
            exported_at
        ]
        executor = ScheduleExecutor(MACHINE, mode=SimMode.STEADY_STATE)
        for iterations in (
            states.boundary.min_iterations, ITERATIONS + 7, 2 * ITERATIONS,
            5000,
        ):
            resumed = executor.execute(
                plan_of(name), iterations=iterations, sink=NullSink(),
                states=states,
            )
            fresh = steady(name, iterations)
            assert trace_fields(resumed) == trace_fields(fresh), iterations
            assert resumed.rounds_simulated < fresh.rounds_simulated
