"""SLO classes, policies and the typed admission error."""

from __future__ import annotations

import pickle

import pytest

from repro.fleet.slo import (
    DEFAULT_SLO_POLICIES,
    FleetAdmissionError,
    SloClass,
    SloPolicy,
)


class TestSloClass:
    def test_from_name_accepts_strings_and_instances(self):
        for slo in SloClass:
            for name in (slo.value, slo.value.upper(), slo.value.title()):
                assert SloClass.from_name(name) is slo
            assert SloClass.from_name(slo) is slo

    def test_unknown_name_lists_known(self):
        with pytest.raises(ValueError, match="interactive") as err:
            SloClass.from_name("gold")
        for slo in SloClass:
            assert slo.value in str(err.value)
        assert "'gold'" in str(err.value)

    def test_dict_and_set_key(self):
        counts = {slo: index for index, slo in enumerate(SloClass)}
        for index, slo in enumerate(SloClass):
            assert counts[SloClass.from_name(slo.value)] == index
        assert len({*SloClass, *SloClass}) == len(SloClass)
        assert SloClass.BATCH in set(SloClass)
        # Equal members hash equally; distinct members stay distinct.
        assert len({hash(slo) for slo in SloClass}) == len(SloClass)
        assert "batch" not in counts

    @pytest.mark.parametrize("slo", list(SloClass), ids=lambda s: s.value)
    def test_pickle_round_trip_is_the_same_member(self, slo):
        restored = pickle.loads(pickle.dumps(slo))
        assert restored is slo
        assert hash(restored) == hash(slo)
        assert {slo: 1}[restored] == 1


class TestSloPolicy:
    def test_validation(self):
        with pytest.raises(ValueError):
            SloPolicy(max_queue_depth=0)
        with pytest.raises(ValueError):
            SloPolicy(max_queue_depth=4, deadline_units=0)
        policy = SloPolicy(max_queue_depth=4, deadline_units=10)
        assert policy.deadline_units == 10

    def test_defaults_cover_every_class(self):
        assert set(DEFAULT_SLO_POLICIES) == set(SloClass)
        # Strictest class queues shallowest; no default deadlines.
        assert (
            DEFAULT_SLO_POLICIES[SloClass.INTERACTIVE].max_queue_depth
            < DEFAULT_SLO_POLICIES[SloClass.BATCH].max_queue_depth
        )
        assert all(
            p.deadline_units is None for p in DEFAULT_SLO_POLICIES.values()
        )


class TestAdmissionError:
    def test_carries_class_and_bound(self):
        err = FleetAdmissionError(SloClass.BATCH, 32, 32, "cat")
        assert err.slo is SloClass.BATCH
        assert err.depth == 32 and err.limit == 32
        assert "batch" in str(err) and "cat" in str(err)
