"""Fault injection: clone isolation and 100% detection (acceptance)."""

import pytest

from repro.core.paraconv import ParaConv
from repro.graph.generators import BENCHMARK_SIZES, synthetic_benchmark
from repro.pim.config import PimConfig
from repro.verify.mutation import (
    MUTATORS,
    clone_result,
    fault_detection_report,
    inject_faults,
)
from repro.verify.validator import ScheduleValidator


@pytest.fixture(scope="module")
def config():
    return PimConfig(num_pes=16, iterations=1000)


@pytest.fixture(scope="module")
def plan(config):
    return ParaConv(config).run(synthetic_benchmark("cat"))


class TestCloneIsolation:
    def test_mutating_a_clone_leaves_the_original_intact(self, plan):
        baseline = ScheduleValidator().validate(plan)
        assert baseline.ok
        for name in sorted(MUTATORS):
            mutant = clone_result(plan)
            MUTATORS[name](mutant, __import__("random").Random(0))
            again = ScheduleValidator().validate(plan)
            assert again.ok, f"mutator {name!r} leaked into the pristine plan"

    def test_clone_shares_graph_and_config(self, plan):
        clone = clone_result(plan)
        assert clone.graph is plan.graph
        assert clone.config is plan.config
        assert clone.schedule is not plan.schedule
        assert clone.allocation is not plan.allocation


class TestInjection:
    def test_seeded_injection_is_deterministic(self, plan):
        first = inject_faults(plan, seed=7)
        second = inject_faults(plan, seed=7)
        assert [f.mutator for f in first] == [f.mutator for f in second]
        assert [f.description for f in first] == [
            f.description for f in second
        ]

    def test_each_fault_names_its_mutator(self, plan):
        for fault in inject_faults(plan, seed=0):
            assert fault.mutator in MUTATORS
            assert fault.description

    def test_subset_selection(self, plan):
        faults = inject_faults(plan, seed=0, mutators=["corrupt-profit"])
        assert [f.mutator for f in faults] == ["corrupt-profit"]


class TestDetection:
    def test_full_corpus_detected_on_cat(self, plan):
        report = fault_detection_report(plan, seed=0)
        assert report.ok, f"missed: {report.missed}"
        assert report.detection_rate == 1.0

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_detection_is_seed_independent(self, plan, seed):
        report = fault_detection_report(plan, seed=seed)
        assert report.ok, f"seed {seed} missed: {report.missed}"

    @pytest.mark.parametrize("name", sorted(BENCHMARK_SIZES))
    def test_full_corpus_detected_on_every_benchmark(self, config, name):
        """Acceptance: 100% detection on the injected corpus, all workloads."""
        plan = ParaConv(config).run(synthetic_benchmark(name))
        report = fault_detection_report(plan, seed=0)
        assert report.ok, f"{name}: missed {report.missed}"
        assert report.detection_rate == 1.0

    def test_broken_baseline_short_circuits(self, plan):
        mutant = clone_result(plan)
        mutant.allocation.total_delta_r += 1  # baseline itself is invalid
        report = fault_detection_report(mutant, seed=0)
        assert not report.ok
        assert report.missed == ["baseline"]
        assert report.injected == []

    def test_report_dict_shape(self, plan):
        payload = fault_detection_report(plan, seed=0).as_dict()
        assert payload["detection_rate"] == 1.0
        assert payload["missed"] == []
        assert payload["injected"] >= 10


class TestSearchMutators:
    """The phantom-profit and consistent-overfill corpus entries (100%
    detection required)."""

    @pytest.mark.parametrize(
        "name", ["search-overstate-profit", "search-overfill-candidate"]
    )
    def test_detected_whenever_applicable(self, config, name):
        applied_somewhere = False
        for benchmark in sorted(BENCHMARK_SIZES):
            plan = ParaConv(config).run(synthetic_benchmark(benchmark))
            report = fault_detection_report(plan, seed=0, mutators=[name])
            if name in {f.mutator for f in report.injected}:
                applied_somewhere = True
                assert name in report.detected, (
                    f"{benchmark}: {name} applied but not detected"
                )
        assert applied_somewhere, f"{name} never applied on any benchmark"

    def test_overstate_profit_breaks_the_cached_set_invariant(self, plan):
        import random

        mutant = clone_result(plan)
        description = MUTATORS["search-overstate-profit"](
            mutant, random.Random(0)
        )
        if description is None:
            pytest.skip("no eDRAM-placed edge on this plan")
        report = ScheduleValidator().validate(mutant)
        assert not report.ok
        assert any(v.check == "allocation" for v in report.errors())

    def test_overfill_candidate_only_breaks_capacity(self, plan):
        """The overfill mutant is internally consistent by construction:
        every violation it produces must come from the capacity check."""
        import random

        mutant = clone_result(plan)
        description = MUTATORS["search-overfill-candidate"](
            mutant, random.Random(0)
        )
        if description is None:
            pytest.skip("every result fits the cache on this plan")
        assert mutant.allocation.slots_used > mutant.allocation.capacity_slots
        report = ScheduleValidator().validate(mutant)
        assert not report.ok
        assert {v.check for v in report.errors()} == {"cache-capacity"}
