"""Fault injection in the discrete-event executor.

Covers the fault-path matrix from the degraded-serving design: faults at
iteration 0 (static and timed), mid-prologue strikes, strikes *after*
steady-state convergence (the fast-forward must never skip a fault
boundary), vault faults on eDRAM-resident intermediate results, and the
guarantee that a trivial fault model leaves execution bit-identical.
"""

from __future__ import annotations

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FAULT_UNIT_VAULT, FaultModel
from repro.sim.executor import PeFaultError, ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink


@pytest.fixture(scope="module")
def machine():
    return PimConfig(num_pes=16, iterations=100)


@pytest.fixture(scope="module")
def plan(machine):
    return ParaConv(machine).run(synthetic_benchmark("cat"))


def executor(machine, mode=SimMode.FULL_UNROLL):
    return ScheduleExecutor(machine, mode=mode)


class TestPeFaults:
    def test_timed_pe_fault_raises_with_context(self, machine, plan):
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 3)
        with pytest.raises(PeFaultError) as excinfo:
            executor(machine).execute(plan, iterations=10, fault_model=fault_model)
        fault = excinfo.value
        assert fault.unit == FAULT_UNIT_PE
        assert fault.unit_id == 0
        assert fault.fault_iteration == 3
        assert fault.round >= 3
        assert "pe 0" in str(fault) and "round" in str(fault)

    def test_fault_at_iteration_zero(self, machine, plan):
        """An event at boundary 0 behaves like a static failure."""
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 0)
        with pytest.raises(PeFaultError) as excinfo:
            executor(machine).execute(plan, iterations=5, fault_model=fault_model)
        assert excinfo.value.fault_iteration == 0
        assert excinfo.value.round >= 1

    def test_static_mask_fault(self, machine, plan):
        fault_model = FaultModel.static(failed_pes=[0])
        with pytest.raises(PeFaultError) as excinfo:
            executor(machine).execute(plan, iterations=5, fault_model=fault_model)
        assert excinfo.value.fault_iteration == 0

    def test_fault_mid_prologue(self, machine, plan):
        """A strike at boundary 1 lands while the pipeline is still
        filling (the prologue spans R_max rounds)."""
        assert plan.max_retiming >= 1  # the scenario requires a prologue
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 1)
        with pytest.raises(PeFaultError) as excinfo:
            executor(machine).execute(plan, iterations=10, fault_model=fault_model)
        assert 1 <= excinfo.value.round <= plan.max_retiming + 1

    def test_constructor_level_fault_model(self, machine, plan):
        runner = ScheduleExecutor(
            machine,
            mode=SimMode.FULL_UNROLL,
            fault_model=FaultModel.single(FAULT_UNIT_PE, 0, 2),
        )
        with pytest.raises(PeFaultError):
            runner.execute(plan, iterations=5)
        # Per-call override takes precedence over the constructor model.
        trace = runner.execute(plan, iterations=5, fault_model=FaultModel.none())
        assert trace.num_instances > 0


class TestVaultFaults:
    def test_vault_fault_on_edram_resident_ir(self, machine, plan):
        """A vault holding an eDRAM-placed intermediate result dies: the
        first transfer touching it must raise, naming the vault."""
        healthy = executor(machine).execute(
            plan, iterations=5, sink=NullSink()
        )
        assert healthy.stats.edram_accesses > 0  # scenario precondition
        raised = []
        for vault_id in range(32):
            try:
                executor(machine).execute(
                    plan,
                    iterations=5,
                    sink=NullSink(),
                    fault_model=FaultModel.single(FAULT_UNIT_VAULT, vault_id, 1),
                )
            except PeFaultError as fault:
                assert fault.unit == FAULT_UNIT_VAULT
                assert fault.unit_id == vault_id
                raised.append(vault_id)
        assert raised, "no vault fault ever fired despite eDRAM traffic"


class TestSteadyStateInteraction:
    def test_fast_forward_never_skips_a_fault(self, machine, plan):
        """The steady-state engine converges long before iteration 500;
        its O(1) splice must stop at the fault boundary, not jump it."""
        healthy = executor(machine, SimMode.STEADY_STATE).execute(
            plan, iterations=1000, sink=NullSink()
        )
        assert healthy.converged_round is not None
        assert healthy.converged_round < 500  # the splice would jump 500
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 500)
        with pytest.raises(PeFaultError) as excinfo:
            executor(machine, SimMode.STEADY_STATE).execute(
                plan, iterations=1000, sink=NullSink(), fault_model=fault_model
            )
        assert excinfo.value.fault_iteration == 500
        assert 500 <= excinfo.value.round <= 1000

    def test_late_fault_near_horizon(self, machine, plan):
        fault_model = FaultModel.single(FAULT_UNIT_PE, 0, 1999)
        with pytest.raises(PeFaultError) as excinfo:
            executor(machine, SimMode.STEADY_STATE).execute(
                plan, iterations=2000, sink=NullSink(), fault_model=fault_model
            )
        assert excinfo.value.round >= 1999

    def test_trivial_model_is_bit_identical(self, machine, plan):
        base = executor(machine, SimMode.STEADY_STATE).execute(
            plan, iterations=200, sink=NullSink()
        )
        with_model = executor(machine, SimMode.STEADY_STATE).execute(
            plan, iterations=200, sink=NullSink(), fault_model=FaultModel.none()
        )
        assert base.aggregate_signature() == with_model.aggregate_signature()

    def test_unfired_future_fault_preserves_results(self, machine, plan):
        """A fault scheduled after the horizon must not perturb the run
        (the detector reset and fast-forward cap are behavior-neutral)."""
        base = executor(machine, SimMode.STEADY_STATE).execute(
            plan, iterations=200, sink=NullSink()
        )
        capped = executor(machine, SimMode.STEADY_STATE).execute(
            plan,
            iterations=200,
            sink=NullSink(),
            fault_model=FaultModel.single(FAULT_UNIT_PE, 0, 10_000),
        )
        assert base.aggregate_signature() == capped.aggregate_signature()
