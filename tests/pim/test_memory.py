"""Tests for the placement enum."""

from repro.pim.memory import Placement


def test_placement_enum():
    assert Placement.CACHE.value == "cache"
    assert Placement.EDRAM.value == "edram"
