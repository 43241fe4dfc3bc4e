"""Tests for the analytic schedule expansion."""

import pytest

from repro.core.expansion import expand, verify_expansion
from repro.core.paraconv import ParaConv
from repro.core.schedule import ScheduleError
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig


@pytest.fixture(scope="module")
def expanded():
    config = PimConfig(num_pes=16, iterations=100)
    result = ParaConv(config).run(synthetic_benchmark("flower"))
    return result, expand(result.schedule, iterations=8)


class TestExpand:
    def test_instance_count(self, expanded):
        result, exp = expanded
        assert len(exp.instances) == result.graph.num_vertices * 8

    def test_round_placement_formula(self, expanded):
        result, exp = expanded
        schedule = result.schedule
        r_max = schedule.max_retiming
        for inst in exp.instances:
            expected_round = inst.iteration + r_max - schedule.retiming[inst.op_id]
            assert inst.round_index == expected_round
            base = (expected_round - 1) * schedule.period
            assert inst.start == base + schedule.kernel.placement(inst.op_id).start

    def test_makespan_bounded_by_rounds(self, expanded):
        result, exp = expanded
        assert exp.makespan <= exp.num_rounds * result.period

    def test_instances_in_round(self, expanded):
        result, exp = expanded
        # round 1 holds only the deepest-retimed operations
        first = exp.instances_in_round(1)
        r_max = result.schedule.max_retiming
        assert all(
            result.schedule.retiming[i.op_id] == r_max for i in first
        )
        assert len(first) >= 1

    def test_instance_lookup(self, expanded):
        _, exp = expanded
        inst = exp.instance(0, 3)
        assert (inst.op_id, inst.iteration) == (0, 3)
        with pytest.raises(ScheduleError):
            exp.instance(0, 999)

    def test_per_pe_timeline_sorted(self, expanded):
        _, exp = expanded
        for instances in exp.per_pe_timeline().values():
            starts = [i.start for i in instances]
            assert starts == sorted(starts)

    def test_invalid_iterations(self, expanded):
        result, _ = expanded
        with pytest.raises(ScheduleError):
            expand(result.schedule, 0)


class TestVerify:
    @pytest.mark.parametrize("name", ["cat", "car", "character-2"])
    def test_pipeline_expansions_verify(self, name):
        config = PimConfig(num_pes=16, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark(name))
        verify_expansion(expand(result.schedule, iterations=6))

    def test_matches_executor_timing(self):
        """The closed-form expansion equals the simulated execution."""
        from repro.sim.executor import ScheduleExecutor

        config = PimConfig(num_pes=16, iterations=100)
        result = ParaConv(config).run(synthetic_benchmark("car"))
        exp = expand(result.schedule, iterations=6)
        trace = ScheduleExecutor(config).execute(
            result, iterations=6
        )
        simulated = {
            (r.op_id, r.iteration): (r.start, r.finish) for r in trace.records
        }
        late = 0
        for inst in exp.instances:
            sim_start, sim_finish = simulated[(inst.op_id, inst.iteration)]
            # the simulator may only ever be late (contention), never early
            assert sim_start >= inst.start
            late += sim_start - inst.start
        # and in aggregate the machine tracks the analytic plan closely
        assert late <= len(exp.instances)
