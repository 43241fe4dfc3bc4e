"""Defensive-validation contract: bad inputs fail loudly and typed.

Machine descriptions (:class:`PimConfig`) and allocation instances
(:class:`AllocationProblem`) are the two data types that cross subsystem
boundaries; both must reject malformed values at the entry point with a
typed error instead of propagating garbage into the planner.
"""

from __future__ import annotations

import pytest

from repro.core.allocation import (
    ALLOCATORS,
    AllocationError,
    AllocationItem,
    AllocationProblem,
)
from repro.core.retiming import RetimingError
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import ConfigurationError, PimConfig
from repro.runtime.session import InferenceSession
from repro.verify.oracle import exhaustive_allocate

from tests.core.retired import RETIRED_ALLOCATORS, allocator_for

PLAIN_ALLOCATORS = sorted(
    set(ALLOCATORS) - {"iterative"} | set(RETIRED_ALLOCATORS)
)


def item(key=(0, 1), slots=2, delta_r=3, deadline=1) -> AllocationItem:
    return AllocationItem(key=key, slots=slots, delta_r=delta_r,
                          deadline=deadline)


class TestPimConfigRejects:
    @pytest.mark.parametrize("pes", [0, -1, -16])
    def test_non_positive_pe_count(self, pes):
        with pytest.raises(ConfigurationError):
            PimConfig(num_pes=pes)

    @pytest.mark.parametrize("cache", [-1, -4096])
    def test_negative_cache(self, cache):
        with pytest.raises(ConfigurationError):
            PimConfig(cache_bytes_per_pe=cache)

    @pytest.mark.parametrize("slot", [0, -512])
    def test_non_positive_slot_size(self, slot):
        with pytest.raises(ConfigurationError):
            PimConfig(cache_slot_bytes=slot)

    @pytest.mark.parametrize("iterations", [0, -5])
    def test_non_positive_iterations(self, iterations):
        with pytest.raises(ConfigurationError):
            PimConfig(iterations=iterations)

    def test_zero_cache_is_legal(self):
        """Capacity 0 is a real machine (all-eDRAM), not an error."""
        assert PimConfig(cache_bytes_per_pe=0).total_cache_slots == 0


class TestAllocationProblemRejects:
    @pytest.mark.parametrize("capacity", [-1, -100])
    @pytest.mark.parametrize("method", PLAIN_ALLOCATORS)
    def test_negative_capacity(self, method, capacity):
        problem = AllocationProblem(items=[item()], capacity_slots=capacity)
        with pytest.raises(AllocationError):
            allocator_for(method)(problem)

    @pytest.mark.parametrize("method", PLAIN_ALLOCATORS)
    def test_non_positive_slots(self, method):
        problem = AllocationProblem(items=[item(slots=0)], capacity_slots=8)
        with pytest.raises(AllocationError):
            allocator_for(method)(problem)

    @pytest.mark.parametrize("method", PLAIN_ALLOCATORS)
    def test_negative_profit(self, method):
        problem = AllocationProblem(items=[item(delta_r=-1)], capacity_slots=8)
        with pytest.raises(AllocationError):
            allocator_for(method)(problem)

    @pytest.mark.parametrize("method", PLAIN_ALLOCATORS)
    def test_duplicate_keys(self, method):
        problem = AllocationProblem(
            items=[item(), item()], capacity_slots=8
        )
        with pytest.raises(AllocationError):
            allocator_for(method)(problem)

    def test_non_integer_capacity(self):
        problem = AllocationProblem(items=[item()], capacity_slots=4.5)
        with pytest.raises(AllocationError):
            ALLOCATORS["dp"](problem)

    def test_competing_and_indifferent_overlap(self):
        problem = AllocationProblem(
            items=[item(key=(2, 3))], capacity_slots=8,
            indifferent=[(2, 3)],
        )
        with pytest.raises(AllocationError):
            ALLOCATORS["greedy"](problem)

    def test_exhaustive_oracle_validates_too(self):
        problem = AllocationProblem(items=[item()], capacity_slots=-1)
        with pytest.raises(AllocationError):
            exhaustive_allocate(problem)

    def test_allocation_error_is_a_retiming_error(self):
        """Existing ``except RetimingError`` guards keep working."""
        assert issubclass(AllocationError, RetimingError)

    def test_zero_capacity_is_legal(self):
        result = ALLOCATORS["dp"](
            AllocationProblem(items=[item()], capacity_slots=0)
        )
        assert result.cached == []
        assert result.slots_used == 0


class TestSessionRejects:
    def test_unknown_allocator_fails_at_construction(self):
        graph = synthetic_benchmark("cat")
        with pytest.raises(ValueError, match="unknown allocator"):
            InferenceSession(graph, PimConfig(), allocator="nonesuch")

    @pytest.mark.parametrize("vaults", [0, -4])
    def test_non_positive_vaults(self, vaults):
        graph = synthetic_benchmark("cat")
        with pytest.raises(ValueError, match="num_vaults"):
            InferenceSession(graph, PimConfig(num_vaults=vaults))
