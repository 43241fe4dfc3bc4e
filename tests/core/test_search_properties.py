"""The search allocators' promises, held by the DP alone.

The retired search allocators (a DP-seeded annealing walk and a
best-of-several portfolio) promised, on random deadline-sorted knapsack
instances: never less profit than the DP and exactly the brute-force
optimum when enumerable; profit monotone in the budget; only feasible
candidates along the way; the same answer in every process. They never
beat the DP and were deleted. The DP ``B[S, m]`` (Section 3.3) now keeps
every one of those promises itself, on the same seeds (300+ cases):

* **oracle equality** — the DP dominates every capacity-aware baseline and
  equals the brute-force optimum on enumerable instances;
* **monotone in the budget** — profit never falls as the cache capacity
  (the knapsack budget) grows, and a table prefix ``B[S, m]`` never
  exceeds ``B[S, m + 1]`` by more than the added item's profit;
* **feasibility of every intermediate** — the answer at every capacity
  column the table visits fits that capacity, and compiled plans pass
  the full :class:`ScheduleValidator` battery;
* **cross-process determinism** — the same problem yields the same cached
  set in a fresh interpreter under a different ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import os
import random
import subprocess
import sys
from pathlib import Path
from typing import List

import pytest

from repro.core.allocation import (
    ALLOCATORS,
    AllocationItem,
    AllocationProblem,
    UnknownAllocatorError,
    all_edram_allocate,
    dp_allocate,
    greedy_allocate,
    random_allocate,
)
from repro.graph.generators import SyntheticGraphGenerator
from repro.verify.oracle import exhaustive_allocate

SRC_DIR = Path(__file__).resolve().parents[2] / "src"

#: The capacity-aware baselines the DP must dominate.
BASELINES = (greedy_allocate, random_allocate, all_edram_allocate)


def make_problem(seed: int, max_items: int = 14) -> AllocationProblem:
    """Random deadline-sorted knapsack instance (enumerable by default)."""
    rng = random.Random(0x5EA8C4 ^ seed)
    count = rng.randint(1, max_items)
    items: List[AllocationItem] = []
    for index in range(count):
        items.append(
            AllocationItem(
                key=(index, index + 1),
                slots=rng.randint(1, 8),
                delta_r=rng.randint(1, 12),
                deadline=rng.randint(0, 50),
            )
        )
    items.sort(key=lambda item: (item.deadline, item.key))
    demand = sum(item.slots for item in items)
    capacity = rng.randint(0, demand + 4)
    return AllocationProblem(items=items, capacity_slots=capacity)


def with_capacity(problem: AllocationProblem, capacity: int):
    return AllocationProblem(items=problem.items, capacity_slots=capacity)


ORACLE_SEEDS = range(100)
MONOTONE_SEEDS = range(100)
FEASIBLE_SEEDS = range(100)
PIPELINE_SEEDS = range(6)


# ----------------------------------------------------------------------
# baseline dominance + oracle equality
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", ORACLE_SEEDS)
def test_dp_lower_bound_and_oracle_equality(seed):
    """dp >= every baseline always; dp == brute-force optimum."""
    problem = make_problem(seed)
    dp = dp_allocate(problem)

    assert dp.slots_used <= problem.capacity_slots
    for baseline in BASELINES:
        assert dp.total_delta_r >= baseline(problem).total_delta_r
    assert dp.total_delta_r == exhaustive_allocate(problem).total_delta_r


# ----------------------------------------------------------------------
# monotone in the budget + the prefix property
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", MONOTONE_SEEDS)
def test_anytime_monotone_in_budget(seed):
    """Profit never decreases as the capacity budget grows."""
    problem = make_problem(seed, max_items=20)
    demand = sum(item.slots for item in problem.items)
    ladder = sorted({0, demand // 4, demand // 2, problem.capacity_slots,
                     demand})
    previous = None
    for capacity in ladder:
        instance = with_capacity(problem, capacity)
        profit = dp_allocate(instance).total_delta_r
        assert profit >= greedy_allocate(instance).total_delta_r
        if previous is not None:
            assert profit >= previous
        previous = profit
    # With room for everything, everything is cached.
    assert previous == sum(item.delta_r for item in problem.items)


@pytest.mark.parametrize("seed", range(40))
def test_trajectory_prefix_property(seed):
    """``B[S, m] <= B[S, m + 1] <= B[S, m] + DR(m + 1)`` on every prefix."""
    problem = make_problem(seed, max_items=20)
    previous = 0
    for m, item in enumerate(problem.items, start=1):
        prefix = AllocationProblem(
            items=problem.items[:m], capacity_slots=problem.capacity_slots
        )
        profit = dp_allocate(prefix).total_delta_r
        assert previous <= profit <= previous + item.delta_r
        previous = profit
    assert previous == dp_allocate(problem).total_delta_r


# ----------------------------------------------------------------------
# feasibility of every intermediate answer
# ----------------------------------------------------------------------
@pytest.mark.parametrize("seed", FEASIBLE_SEEDS)
def test_every_accepted_candidate_is_feasible(seed):
    """The answer at every visited capacity column fits that column."""
    problem = make_problem(seed, max_items=20)
    by_key = {item.key: item for item in problem.items}
    step = max(1, problem.capacity_slots // 16)
    for capacity in range(0, problem.capacity_slots + 1, step):
        result = dp_allocate(with_capacity(problem, capacity))
        assert result.slots_used <= capacity
        assert result.total_delta_r >= 0
        assert result.slots_used == sum(
            by_key[key].slots for key in result.cached
        )
        assert result.total_delta_r == sum(
            by_key[key].delta_r for key in result.cached
        )


@pytest.mark.parametrize("seed", PIPELINE_SEEDS)
def test_compiled_anneal_plans_pass_the_validator(seed):
    """These graphs once compiled under the annealer: that name is now
    refused, and the DP plans that replace it pass the validator."""
    from repro.core.paraconv import ParaConv
    from repro.pim.config import PimConfig
    from repro.verify.validator import ScheduleValidator

    rng = random.Random(0xA11 ^ seed)
    n = rng.randint(6, 18)
    graph = SyntheticGraphGenerator().generate(
        n, n - 1 + rng.randint(0, n // 2), seed=seed,
        name=f"search-prop-{seed}",
    )
    config = PimConfig(num_pes=8)
    with pytest.raises(UnknownAllocatorError):
        ParaConv(config, allocator_name="anneal")
    plan = ParaConv(config, allocator_name="dp").run(graph)
    report = ScheduleValidator().validate(plan)
    assert report.ok, [str(v) for v in report.errors()]
    assert plan.allocation.method == "dp"


# ----------------------------------------------------------------------
# cross-process determinism
# ----------------------------------------------------------------------
_DETERMINISM_SCRIPT = """
import random
from repro.core.allocation import (
    AllocationItem, AllocationProblem, dp_allocate,
)

rng = random.Random(0x5EA8C4 ^ {seed})
count = rng.randint(1, 14)
items = []
for index in range(count):
    items.append(AllocationItem(
        key=(index, index + 1),
        slots=rng.randint(1, 8),
        delta_r=rng.randint(1, 12),
        deadline=rng.randint(0, 50),
    ))
items.sort(key=lambda item: (item.deadline, item.key))
demand = sum(item.slots for item in items)
capacity = rng.randint(0, demand + 4)
problem = AllocationProblem(items=items, capacity_slots=capacity)
result = dp_allocate(problem)
print(sorted(result.cached), result.total_delta_r, result.slots_used)
"""


@pytest.mark.parametrize("hashseed", ["1", "4242"])
def test_cross_process_determinism(hashseed):
    """Same problem -> same answer under any hash seed."""
    expected = {}
    for seed in (3, 17):
        result = dp_allocate(make_problem(seed))
        expected[seed] = (
            f"{sorted(result.cached)} {result.total_delta_r} "
            f"{result.slots_used}"
        )
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    env["PYTHONPATH"] = str(SRC_DIR)
    for seed, want in expected.items():
        out = subprocess.run(
            [sys.executable, "-c", _DETERMINISM_SCRIPT.format(seed=seed)],
            capture_output=True, text=True, env=env, check=True,
        ).stdout.strip()
        assert out == want


# ----------------------------------------------------------------------
# degenerate instances
# ----------------------------------------------------------------------
def test_zero_budget_returns_the_seed_verbatim():
    """The registry's ``dp`` answers exactly as the DP, call after call."""
    problem = make_problem(11)
    dp = dp_allocate(problem)
    for _ in range(2):
        served = ALLOCATORS["dp"](problem)
        assert served.cached == dp.cached
        assert served.total_delta_r == dp.total_delta_r
        assert served.slots_used == dp.slots_used


def test_zero_capacity_instance():
    problem = make_problem(5)
    result = dp_allocate(with_capacity(problem, 0))
    assert result.total_delta_r == 0
    assert result.slots_used == 0
    assert result.cached == []


def test_greedy_seed_never_below_greedy():
    problem = make_problem(23, max_items=20)
    assert (
        dp_allocate(problem).total_delta_r
        >= greedy_allocate(problem).total_delta_r
    )
