"""The columnar profit table (``repro.core.profit``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.profit import (
    NUMPY_FLOOR,
    ProfitTable,
    require_numpy_floor,
)

from tests.golden.regen import PROFIT_SCORES_PATH, load_golden, profit_problem


@pytest.fixture(scope="module")
def problem():
    instance = profit_problem()
    assert instance.num_items > 0
    return instance


@pytest.fixture(scope="module")
def golden_scores():
    return load_golden(PROFIT_SCORES_PATH)


@pytest.fixture(scope="module")
def table(problem):
    return ProfitTable.of(problem)


class TestConstruction:
    def test_cached_on_the_problem(self, problem, table):
        assert ProfitTable.of(problem) is table

    def test_cache_invalidates_on_item_count_change(self, problem):
        first = ProfitTable.of(problem)
        items = problem.items
        try:
            problem.items = items[:-1]
            rebuilt = ProfitTable.of(problem)
            assert rebuilt is not first
            assert rebuilt.num_items == len(items) - 1
        finally:
            problem.items = items
            problem._profit_table = first

    def test_columns_mirror_the_items(self, problem, table):
        assert table.num_items == len(problem.items)
        for index, item in enumerate(problem.items):
            assert table.keys[index] == item.key
            assert table.slots_list[index] == item.slots
            assert table.delta_list[index] == item.delta_r
            assert int(table.deadlines[index]) == item.deadline
            assert table.index_of(item.key) == index


class TestScoring:
    def test_score_mask_returns_plain_ints(self, table):
        mask = np.zeros(table.num_items, dtype=bool)
        mask[0] = True
        profit, slots = table.score_mask(mask)
        assert type(profit) is int and type(slots) is int
        assert profit == table.delta_list[0]
        assert slots == table.slots_list[0]

    def test_batch_scoring_matches_object_walk(self, table, golden_scores):
        # The object walk's scores on a fixed batch, frozen by
        # ``python -m tests.golden.regen``.
        assert golden_scores["num_items"] == table.num_items
        masks = np.array(
            [[bit == "1" for bit in row] for row in golden_scores["masks"]]
        )
        profits, slots = table.score_masks(masks)
        assert [
            [int(p), int(s)] for p, s in zip(profits, slots)
        ] == golden_scores["scores"]

    def test_score_masks_rejects_wrong_shape(self, table):
        with pytest.raises(ValueError, match="masks must be"):
            table.score_masks(np.zeros((4, table.num_items + 1), dtype=bool))
        with pytest.raises(ValueError, match="masks must be"):
            table.score_masks(np.zeros(table.num_items, dtype=bool))

    def test_feasible_thresholds_on_capacity(self, table):
        masks = np.eye(table.num_items, dtype=bool)
        smallest = min(table.slots_list)
        feasible = table.feasible(masks, smallest)
        assert feasible.tolist() == [
            slots <= smallest for slots in table.slots_list
        ]

    def test_member_mask_ignores_foreign_keys(self, table):
        mask = table.member_mask([table.keys[0], (10 ** 9, 10 ** 9)])
        assert mask.sum() == 1 and bool(mask[0])

    def test_movable_indices_are_ascending_and_fit(self, table):
        cap = max(table.slots_list)
        movable = table.movable_indices(cap)
        assert movable == sorted(movable)
        assert all(table.slots_list[i] <= cap for i in movable)
        assert table.movable_indices(-1) == []


class TestFinalization:
    def test_result_from_mask_matches_scores(self, problem, table):
        mask = table.feasible(
            np.eye(table.num_items, dtype=bool), problem.capacity_slots
        )
        chosen = np.zeros(table.num_items, dtype=bool)
        for index in range(table.num_items):
            if mask[index]:
                chosen[index] = True
                break
        result = table.result_from_mask("unit-test", problem, chosen)
        profit, slots = table.score_mask(chosen)
        assert result.method == "unit-test"
        assert result.total_delta_r == profit
        assert result.slots_used == slots
        assert result.cached == [
            key for index, key in enumerate(table.keys) if chosen[index]
        ]
        # Every item and every indifferent edge got a placement.
        assert len(result.placements) == (
            table.num_items + len(problem.indifferent)
        )

    def test_result_from_mask_rejects_wrong_shape(self, problem, table):
        with pytest.raises(ValueError, match="mask must have shape"):
            table.result_from_mask(
                "unit-test", problem,
                np.zeros(table.num_items + 2, dtype=bool),
            )


class TestNumpyFloor:
    def test_current_numpy_passes(self):
        np_module = require_numpy_floor("unit-test")
        assert np_module is np

    def test_old_numpy_is_rejected(self, monkeypatch):
        floor = ".".join(map(str, NUMPY_FLOOR))
        monkeypatch.setattr(np, "__version__", "1.21.6")
        with pytest.raises(ImportError, match=f"requires numpy >= {floor}"):
            require_numpy_floor("unit-test")

    def test_unparseable_version_is_tolerated(self, monkeypatch):
        monkeypatch.setattr(np, "__version__", "unknown")
        assert require_numpy_floor("unit-test") is np
