"""Per-round equivalence of the steady-state mode and the full unroll.

``python -m repro.verify --sim`` proves the two simulation modes agree on
*aggregate* signatures; this battery tightens the claim to every round
boundary of the columnar engine. The executor's ``round_probe`` hook
fires after each simulated round with the monotone counter snapshot
(:class:`~repro.sim.executor._BoundarySnapshot`). The full unroll probes
every round; the steady mode probes the rounds it simulates and skips
the fast-forwarded ones. So the steady stream must match the full stream
on every round both simulated: exactly before the splice, and after it
on every counter the splice replays (``events_processed`` counts only
events actually dispatched, so it is the one counter that legitimately
differs). A seeded property battery sweeps benchmarks, iteration counts,
fault boundaries and shard logical views; a divergence in any single
round's counters — even one that cancels out by the end of the run —
fails the comparison. The exact per-round streams of every registered
workload are additionally pinned by ``tests/golden/sim_signatures.json``.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.sim.executor import PeFaultError, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink


def round_stream(machine, plan, mode, iterations, fault_model=None):
    """Run one mode, recording every (round, snapshot) the probe sees.

    Returns ``(rounds, signature, fault)`` where ``signature`` is the
    aggregate signature (None if the run faulted) and ``fault`` is the
    raised fault's identifying tuple (None on a clean run).
    """
    rounds = []
    executor = ScheduleExecutor(
        machine,
        mode=mode,
        fault_model=fault_model,
        round_probe=lambda index, snapshot: rounds.append((index, snapshot)),
    )
    try:
        trace = executor.execute(
            plan, iterations=iterations, sink=NullSink()
        )
    except PeFaultError as exc:
        return rounds, None, (
            exc.unit, exc.unit_id, exc.round, exc.time, exc.fault_iteration
        )
    return rounds, trace.aggregate_signature(), None


def pre_splice(rounds):
    """The probe entries before the first fast-forward jump."""
    return [
        entry for position, entry in enumerate(rounds)
        if entry[0] == position + 1
    ]


def replayed(snapshot):
    """The snapshot's counters that the fast-forward replays."""
    return dataclasses.replace(snapshot, events_processed=0)


def assert_round_equivalent(machine, plan, iterations, fault_model=None):
    """The steady stream must agree with the full stream round by round."""
    full = round_stream(
        machine, plan, SimMode.FULL_UNROLL, iterations, fault_model
    )
    steady = round_stream(
        machine, plan, SimMode.STEADY_STATE, iterations, fault_model
    )
    label = f"{plan.graph.name} N={iterations}"
    full_rounds, steady_rounds = full[0], steady[0]
    prefix = pre_splice(steady_rounds)
    assert prefix == full_rounds[: len(prefix)], (
        f"steady/full per-round divergence before the splice on {label}"
    )
    by_index = dict(full_rounds)
    for index, snapshot in steady_rounds[len(prefix):]:
        assert replayed(snapshot) == replayed(by_index[index]), (
            f"steady/full counters diverge after the splice at round "
            f"{index} on {label}"
        )
    assert steady[1:] == full[1:], (
        f"steady/full signature or fault divergence on {label}"
    )
    return full


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16, iterations=100)


@pytest.fixture(scope="module")
def plans(machine):
    return {
        name: ParaConv(machine).run(synthetic_benchmark(name))
        for name in ("car", "cat", "image-compress")
    }


@pytest.mark.parametrize("name", ("car", "cat", "image-compress"))
@pytest.mark.parametrize("iterations", (1, 7, 40))
def test_per_round_counters_match(machine, plans, name, iterations):
    """Every round's cumulative counters agree, not just the final sums."""
    full = assert_round_equivalent(machine, plans[name], iterations)
    rounds, signature, fault = full
    assert fault is None
    assert signature is not None
    assert len(rounds) >= 1
    # The probe stream is per *simulated* round: strictly increasing
    # indices with monotone counters (the battery's own sanity check).
    indices = [index for index, _snapshot in rounds]
    assert indices == sorted(indices)
    for (_, earlier), (_, later) in zip(rounds, rounds[1:]):
        assert later.events_processed >= earlier.events_processed
        assert later.num_instances >= earlier.num_instances


def test_steady_probe_stops_at_fast_forward(machine, plans):
    """The steady mode only probes simulated rounds — the fast-forwarded
    tail produces no probe events — and every round it did simulate
    before the splice matches the full unroll's round for round."""
    full = round_stream(machine, plans["car"], SimMode.FULL_UNROLL, 60)
    steady = round_stream(machine, plans["car"], SimMode.STEADY_STATE, 60)
    assert steady[1] == full[1]
    # Convergence means the steady mode simulates fewer rounds...
    assert len(steady[0]) < len(full[0])
    # ...and, up to the splice (probe indices are contiguous from 1
    # until the fast-forward jumps them), every simulated round matches
    # the full unroll's round for round.
    prefix = pre_splice(steady[0])
    assert 1 <= len(prefix) < len(steady[0])
    assert full[0][: len(prefix)] == prefix


class TestFaultBoundaries:
    """Per-round equality must hold right up to (and including) a fault."""

    @pytest.mark.parametrize("boundary", (0, 1, 3))
    def test_pe_fault_rounds_match(self, machine, plans, boundary):
        fault = FaultModel.single(FAULT_UNIT_PE, 0, boundary)
        full = assert_round_equivalent(
            machine, plans["cat"], 10, fault_model=fault
        )
        _rounds, signature, raised = full
        assert signature is None
        assert raised is not None and raised[0] == FAULT_UNIT_PE

    def test_vault_fault_rounds_match(self, machine, plans):
        # Vault faults only fire if a transfer touches the dead vault;
        # either way the modes must agree round for round.
        for vault_id in range(4):
            fault = FaultModel.single(FAULT_UNIT_VAULT, vault_id, 2)
            assert_round_equivalent(
                machine, plans["car"], 8, fault_model=fault
            )

    def test_fault_after_convergence_blocks_fast_forward(
        self, machine, plans
    ):
        """A fault beyond the convergence point must still fire: the
        splice is capped at the fault horizon."""
        fault = FaultModel.single(FAULT_UNIT_PE, 0, 50)
        full = assert_round_equivalent(
            machine, plans["car"], 60, fault_model=fault
        )
        assert full[2] is not None and full[2][0] == FAULT_UNIT_PE


def test_shard_logical_views_match(machine):
    """Per-round equality holds on partitioned machines (shard views
    recompile onto fewer PEs)."""
    graph = synthetic_benchmark("flower")
    for shard in machine.split(2):
        plan = ParaConv(shard).run(graph)
        assert_round_equivalent(shard, plan, 12)


def test_degraded_machine_rounds_match(machine):
    """Same battery on a degraded machine (only the highest PE survives)."""
    degraded = machine.degraded([machine.num_pes - 1])
    plan = ParaConv(degraded).run(synthetic_benchmark("cat"))
    assert_round_equivalent(degraded, plan, 12)


SEEDED_TRIALS = 12


@pytest.mark.parametrize("seed", range(SEEDED_TRIALS))
def test_seeded_property_battery(seed):
    """Randomized sweep: benchmark x machine x N x optional fault.

    Each seed derives one configuration deterministically, so a failure
    reproduces by seed alone.
    """
    rng = random.Random(0xC01A + seed)
    name = rng.choice(
        ("car", "cat", "flower", "image-compress", "speech-1")
    )
    num_pes = rng.choice((4, 8, 16))
    iterations = rng.choice((1, 2, 5, 9, 17))
    machine = PimConfig(num_pes=num_pes, iterations=100)
    plan = ParaConv(machine).run(synthetic_benchmark(name))
    fault_model = None
    if rng.random() < 0.5:
        unit = rng.choice((FAULT_UNIT_PE, FAULT_UNIT_VAULT))
        unit_id = rng.randrange(num_pes if unit == FAULT_UNIT_PE else 32)
        fault_model = FaultModel.single(
            unit, unit_id, rng.randrange(0, iterations + 2)
        )
    assert_round_equivalent(machine, plan, iterations, fault_model)
