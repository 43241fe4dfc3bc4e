"""The packed-row DP against the textbook ``B[s, m]`` table.

:func:`dp_allocate` packs each row of the paper's table (Sec. 3.3.2) into
one int. The reference below builds the same table as plain lists of
lists and reconstructs the subset the same way (item ``m`` is taken iff
``B[s, m] != B[s, m-1]``), so both must return identical results, the
order of ``cached`` included.
"""

from __future__ import annotations

import random
from typing import List

import pytest

from repro.core.allocation import (
    AllocationItem,
    AllocationProblem,
    AllocationResult,
    _finalize,
    dp_allocate,
)


def dense_dp_allocate(problem: AllocationProblem) -> AllocationResult:
    """``B[s, m]`` as a dense table of Python ints, walked backwards."""
    problem.validate()
    capacity = problem.capacity_slots
    items = problem.items
    table = [[0] * (capacity + 1)]
    for item in items:
        previous = table[-1]
        row = list(previous)
        for s in range(item.slots, capacity + 1):
            row[s] = max(previous[s], previous[s - item.slots] + item.delta_r)
        table.append(row)
    chosen: List[AllocationItem] = []
    s = capacity
    for m in range(len(items), 0, -1):
        if table[m][s] != table[m - 1][s]:
            chosen.append(items[m - 1])
            s -= items[m - 1].slots
    chosen.reverse()
    return _finalize("dp", problem, chosen)


def random_problem(
    rng: random.Random,
    capacity: int,
    max_slots: int,
    max_profit: int,
    max_items: int = 12,
) -> AllocationProblem:
    items = [
        AllocationItem(
            key=(index, index + 1),
            slots=rng.randint(1, max_slots),
            delta_r=rng.randint(0, max_profit),
            deadline=rng.randint(0, 5),
        )
        for index in range(rng.randint(0, max_items))
    ]
    items.sort(key=lambda item: (item.deadline, item.key))
    return AllocationProblem(
        items=items, capacity_slots=capacity, indifferent=[(100, 101)]
    )


def assert_same(problem: AllocationProblem) -> None:
    assert dp_allocate(problem) == dense_dp_allocate(problem)


#: (name, capacity, max_slots, max_profit): each exercises one corner of
#: the packing.
REGIMES = [
    ("capacity-0", lambda rng: 0, 4, 9),
    ("wider-than-capacity", lambda rng: rng.randint(0, 6), 20, 9),
    ("wide-fields", lambda rng: rng.randint(0, 40), 8, 10**6),
    ("ties", lambda rng: rng.randint(0, 30), 4, 2),
    ("zero-profit", lambda rng: rng.randint(0, 10), 4, 0),
    ("general", lambda rng: rng.randint(0, 64), 8, 50),
]


@pytest.mark.parametrize(
    "name, capacity, max_slots, max_profit", REGIMES,
    ids=[regime[0] for regime in REGIMES],
)
def test_packed_dp_matches_dense_table(name, capacity, max_slots, max_profit):
    rng = random.Random(f"dp-reference-{name}")
    for _ in range(300):
        problem = random_problem(rng, capacity(rng), max_slots, max_profit)
        assert_same(problem)


def test_every_item_wider_than_capacity_caches_nothing():
    problem = AllocationProblem(
        items=[
            AllocationItem(key=(k, k + 1), slots=5 + k, delta_r=3, deadline=k)
            for k in range(4)
        ],
        capacity_slots=4,
    )
    assert_same(problem)
    assert dp_allocate(problem).cached == []


def test_equal_profit_ties_take_the_tables_choice():
    # Four interchangeable items, room for two: B[2, m] stops growing at
    # m = 2, so the backward walk keeps the two earliest deadlines.
    problem = AllocationProblem(
        items=[
            AllocationItem(key=(k, k + 1), slots=1, delta_r=7, deadline=k)
            for k in range(4)
        ],
        capacity_slots=2,
    )
    assert_same(problem)
    assert dp_allocate(problem).cached == [(0, 1), (1, 2)]


def test_wide_profits_do_not_carry_between_fields():
    problem = AllocationProblem(
        items=[
            AllocationItem(key=(0, 1), slots=1, delta_r=10**6, deadline=0),
            AllocationItem(key=(1, 2), slots=2, delta_r=10**6 - 1, deadline=1),
            AllocationItem(key=(2, 3), slots=1, delta_r=10**6, deadline=2),
        ],
        capacity_slots=3,
    )
    assert_same(problem)
    assert dp_allocate(problem).cached == [(0, 1), (2, 3)]
