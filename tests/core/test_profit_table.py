"""The oracle's columnar profit table (``repro.verify.oracle``)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.verify.oracle import (
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
    def test_cache_invalidates_on_item_count_change(self, problem):
        """``of`` keeps no cache: a table always follows the items."""
        items = problem.items
        try:
            problem.items = items[:-1]
            rebuilt = ProfitTable.of(problem)
            assert rebuilt.keys == [item.key for item in items[:-1]]
        finally:
            problem.items = items
        assert len(ProfitTable.of(problem).keys) == len(items)

    def test_columns_mirror_the_items(self, problem, table):
        assert table.keys == [item.key for item in problem.items]
        assert table.slots.tolist() == [item.slots for item in problem.items]
        assert table.delta_r.tolist() == [
            item.delta_r for item in problem.items
        ]


class TestScoring:
    def test_score_mask_returns_plain_ints(self, problem, table):
        """The table scores in ``int64``; the results it builds hold
        plain ints."""
        mask = np.zeros(len(table.keys), dtype=bool)
        mask[0] = True
        result = table.result_from_mask("unit-test", problem, mask)
        assert type(result.total_delta_r) is int
        assert type(result.slots_used) is int
        assert result.total_delta_r == problem.items[0].delta_r
        assert result.slots_used == problem.items[0].slots

    def test_batch_scoring_matches_object_walk(self, table, golden_scores):
        # The object walk's scores on a fixed batch, frozen by
        # ``python -m tests.golden.regen``.
        assert golden_scores["num_items"] == len(table.keys)
        masks = np.array(
            [[bit == "1" for bit in row] for row in golden_scores["masks"]]
        )
        profits, slots = table.score_masks(masks)
        assert [
            [int(p), int(s)] for p, s in zip(profits, slots)
        ] == golden_scores["scores"]

    def test_feasible_thresholds_on_capacity(self, problem, table):
        """One-hot rows fit exactly the items no larger than the capacity,
        the threshold the oracle applies to every subset."""
        smallest = min(item.slots for item in problem.items)
        _profits, slots = table.score_masks(
            np.eye(len(table.keys), dtype=bool)
        )
        assert (slots <= smallest).tolist() == [
            item.slots <= smallest for item in problem.items
        ]

    def test_score_masks_rejects_wrong_shape(self, table):
        n = len(table.keys)
        with pytest.raises(ValueError, match="masks must be"):
            table.score_masks(np.zeros((4, n + 1), dtype=bool))
        with pytest.raises(ValueError, match="masks must be"):
            table.score_masks(np.zeros(n, dtype=bool))


class TestFinalization:
    def test_result_from_mask_matches_scores(self, problem, table):
        n = len(table.keys)
        fitting = [
            index for index, item in enumerate(problem.items)
            if item.slots <= problem.capacity_slots
        ]
        chosen = np.zeros(n, dtype=bool)
        chosen[fitting[0]] = True
        result = table.result_from_mask("unit-test", problem, chosen)
        item = problem.items[fitting[0]]
        assert result.method == "unit-test"
        assert result.total_delta_r == item.delta_r
        assert result.slots_used == item.slots
        assert result.cached == [item.key]
        # Every item and every indifferent edge got a placement.
        assert len(result.placements) == n + len(problem.indifferent)

    def test_result_from_mask_rejects_wrong_shape(self, problem, table):
        with pytest.raises(ValueError, match="mask must have shape"):
            table.result_from_mask(
                "unit-test", problem,
                np.zeros(len(table.keys) + 2, dtype=bool),
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
