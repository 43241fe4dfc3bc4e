"""ScheduleValidator: pristine plans pass, corrupted plans fail precisely."""

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.memory import Placement
from repro.verify.mutation import clone_result
from repro.verify.validator import CHECK_CATALOG, ScheduleValidator
from tests.builders import drop_row, set_row


@pytest.fixture(scope="module")
def config():
    return PimConfig(num_pes=16, iterations=1000)


@pytest.fixture(scope="module")
def plan(config):
    return ParaConv(config).run(synthetic_benchmark("cat"))


class TestPristinePlans:
    def test_default_plan_has_zero_errors(self, plan):
        report = ScheduleValidator().validate(plan)
        assert report.ok, report.summary()

    def test_all_catalog_checks_ran(self, plan):
        report = ScheduleValidator().validate(plan)
        covered = set(report.checks_run) | set(report.checks_skipped)
        assert covered == set(CHECK_CATALOG)

    def test_validator_is_callable(self, plan):
        assert ScheduleValidator()(plan).ok

    def test_liveness_aware_plan_is_strict_clean(self, config):
        """liveness_aware plans satisfy even the strict occupancy check."""
        plan = ParaConv(config, liveness_aware=True).run(
            synthetic_benchmark("cat")
        )
        report = ScheduleValidator(strict_liveness=True).validate(plan)
        assert report.ok, report.summary()

    def test_oracle_plan_skips_capacity(self, config):
        plan = ParaConv(config, allocator_name="oracle").run(
            synthetic_benchmark("cat")
        )
        report = ScheduleValidator().validate(plan)
        assert report.ok, report.summary()
        assert "cache-capacity" in report.checks_skipped

    def test_unroll_must_be_positive(self):
        with pytest.raises(ValueError):
            ScheduleValidator(unroll_iterations=0)


class TestTargetedCorruptions:
    """Each corruption trips exactly the check that owns the invariant."""

    def _checks_fired(self, mutant):
        report = ScheduleValidator().validate(mutant)
        assert not report.ok
        return set(v.check for v in report.errors())

    def test_dropped_op_hits_kernel_resources(self, plan):
        mutant = clone_result(plan)
        drop_row(mutant.schedule.kernel, sorted(mutant.schedule.kernel.op_ids)[0])
        assert "kernel-resources" in self._checks_fired(mutant)

    def test_stretched_op_misreports_duration(self, plan):
        mutant = clone_result(plan)
        kernel = mutant.schedule.kernel
        op_id = sorted(kernel.op_ids)[0]
        p = kernel.placement(op_id)
        set_row(kernel, op_id, p.pe, p.start, p.finish + 1)
        assert "kernel-resources" in self._checks_fired(mutant)

    def test_negative_retiming_hits_legality(self, plan):
        mutant = clone_result(plan)
        op_id = sorted(mutant.schedule.retiming)[0]
        mutant.schedule.retiming[op_id] = -2
        assert "retiming-legality" in self._checks_fired(mutant)

    def test_edge_band_violation_hits_legality(self, plan):
        mutant = clone_result(plan)
        key = sorted(mutant.schedule.edge_retiming)[0]
        mutant.schedule.edge_retiming[key] = 10_000
        assert "retiming-legality" in self._checks_fired(mutant)

    def test_profit_corruption_hits_allocation(self, plan):
        mutant = clone_result(plan)
        mutant.allocation.total_delta_r += 3
        assert "allocation" in self._checks_fired(mutant)

    def test_capacity_overfill_hits_cache_capacity(self, plan):
        mutant = clone_result(plan)
        mutant.allocation.slots_used = mutant.allocation.capacity_slots + 1
        fired = self._checks_fired(mutant)
        assert "cache-capacity" in fired

    def test_shrunk_period_hits_period(self, plan):
        mutant = clone_result(plan)
        kernel = mutant.schedule.kernel
        kernel.period = kernel.makespan() - 1
        assert "period" in self._checks_fired(mutant)

    def test_oversized_group_hits_grouping(self, plan):
        mutant = clone_result(plan)
        mutant = type(mutant)(
            graph=mutant.graph,
            config=mutant.config,
            schedule=mutant.schedule,
            allocation=mutant.allocation,
            case_histogram=mutant.case_histogram,
            group_width=mutant.group_width,
            num_groups=mutant.config.num_pes + 1,
        )
        assert "grouping" in self._checks_fired(mutant)

    def test_placement_flip_breaks_transfer_consistency(self, plan):
        mutant = clone_result(plan)
        # flip the first cached edge to eDRAM without touching transfers
        cached = sorted(mutant.allocation.cached)
        if not cached:
            pytest.skip("plan caches nothing")
        key = cached[0]
        mutant.schedule.placements[key] = Placement.EDRAM
        mutant.allocation.placements[key] = Placement.EDRAM
        mutant.allocation.cached = [k for k in cached if k != key]
        assert "allocation" in self._checks_fired(mutant)

    def test_report_collects_multiple_faults_in_one_pass(self, plan):
        """The validator never stops at the first broken invariant."""
        mutant = clone_result(plan)
        mutant.allocation.total_delta_r += 1
        op_id = sorted(mutant.schedule.retiming)[0]
        mutant.schedule.retiming[op_id] = -1
        fired = self._checks_fired(mutant)
        assert {"allocation", "retiming-legality"} <= fired
