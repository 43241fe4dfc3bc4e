"""Tests for the six-case classification of Figure 4."""

import pytest

from repro.core.cases import (
    RetimingCase,
    case_census,
    classify,
    classify_all,
    classify_timing,
)
from repro.core.retiming import EdgeTiming, RetimingError
from tests.builders import timings_table


def timing(delta_cache, delta_edram, key=(0, 1)):
    return EdgeTiming(
        key=key, transfer_cache=0, transfer_edram=1,
        delta_cache=delta_cache, delta_edram=delta_edram,
        slots=1, deadline=0,
    )


class TestClassification:
    @pytest.mark.parametrize(
        "pair,expected",
        [
            ((0, 0), RetimingCase.CASE_1),
            ((0, 1), RetimingCase.CASE_2),
            ((0, 2), RetimingCase.CASE_3),
            ((1, 1), RetimingCase.CASE_4),
            ((1, 2), RetimingCase.CASE_5),
            ((2, 2), RetimingCase.CASE_6),
        ],
    )
    def test_all_six_cases(self, pair, expected):
        assert classify(*pair) is expected

    @pytest.mark.parametrize(
        "pair", [(1, 0), (2, 1), (3, 3), (0, 3), (-1, 0), (2, 0)]
    )
    def test_infeasible_pairs_rejected(self, pair):
        with pytest.raises(RetimingError):
            classify(*pair)

    def test_classify_timing(self):
        assert classify_timing(timing(1, 2)) is RetimingCase.CASE_5


class TestCaseSemantics:
    def test_placement_sensitivity(self):
        # paper: cases 2, 3, 5 compete for cache; 1, 4, 6 are indifferent
        sensitive = {c for c in RetimingCase if c.placement_sensitive}
        assert sensitive == {
            RetimingCase.CASE_2, RetimingCase.CASE_3, RetimingCase.CASE_5,
        }

    def test_delta_r_per_case(self):
        assert RetimingCase.CASE_1.delta_r == 0
        assert RetimingCase.CASE_2.delta_r == 1
        assert RetimingCase.CASE_3.delta_r == 2
        assert RetimingCase.CASE_4.delta_r == 0
        assert RetimingCase.CASE_5.delta_r == 1
        assert RetimingCase.CASE_6.delta_r == 0

    def test_sensitive_iff_positive_delta_r(self):
        for case in RetimingCase:
            assert case.placement_sensitive == (case.delta_r > 0)


class TestCensus:
    def test_census_counts_all(self):
        timings = timings_table([
            timing(0, 0, (0, 1)),
            timing(0, 1, (0, 2)),
            timing(0, 1, (1, 3)),
            timing(2, 2, (2, 3)),
        ])
        census = case_census(timings)
        assert census[RetimingCase.CASE_1] == 1
        assert census[RetimingCase.CASE_2] == 2
        assert census[RetimingCase.CASE_6] == 1
        assert sum(census.values()) == 4
        assert set(census) == set(RetimingCase)  # all keys present

    def test_classify_all(self):
        timings = {(0, 1): timing(1, 2)}
        assert classify_all(timings) == {(0, 1): RetimingCase.CASE_5}
