"""Canonical serialization + fingerprints for PimConfig and TaskGraph."""

from __future__ import annotations

import pytest

from repro.graph.taskgraph import TaskGraph
from repro.pim.config import ConfigurationError, PimConfig
from tests.builders import linear_chain


class TestConfigFingerprint:
    def test_stable_across_instances(self):
        assert PimConfig().fingerprint() == PimConfig().fingerprint()

    def test_to_dict_has_stable_field_order_and_version(self):
        payload = PimConfig().to_dict()
        assert list(payload)[0] == "fingerprint_version"
        assert payload["fingerprint_version"] == 1
        assert set(payload) == {
            "fingerprint_version",
            "num_pes",
            "cache_bytes_per_pe",
            "cache_slot_bytes",
            "cache_bytes_per_unit",
            "edram_latency_factor",
            "edram_energy_factor",
            "iterations",
        }

    @pytest.mark.parametrize(
        "variant",
        [
            dict(num_pes=64),
            dict(cache_bytes_per_pe=8192),
            dict(cache_slot_bytes=256),
            dict(cache_bytes_per_unit=4096),
            dict(edram_latency_factor=8),
            dict(edram_energy_factor=3),
            dict(iterations=5),
        ],
    )
    def test_every_field_feeds_the_fingerprint(self, variant):
        assert PimConfig(**variant).fingerprint() != PimConfig().fingerprint()

    def test_round_trip(self):
        config = PimConfig(num_pes=64, iterations=7)
        assert PimConfig.from_dict(config.to_dict()) == config

    def test_from_dict_rejects_unknown_version(self):
        payload = PimConfig().to_dict()
        payload["fingerprint_version"] = 999
        with pytest.raises(ConfigurationError):
            PimConfig.from_dict(payload)


class TestGraphFingerprint:
    def test_copy_preserves_fingerprint(self):
        graph = linear_chain([1, 2, 3])
        assert graph.copy().fingerprint() == graph.fingerprint()

    def test_name_excluded(self):
        a = linear_chain([1, 2], name="a")
        b = linear_chain([1, 2], name="b")
        assert a.fingerprint() == b.fingerprint()

    def test_insertion_order_irrelevant(self):
        forward = TaskGraph()
        forward.add_op(0, execution_time=2)
        forward.add_op(1, execution_time=3)
        forward.connect(0, 1, size_bytes=64)
        backward = TaskGraph()
        backward.add_op(1, execution_time=3)
        backward.add_op(0, execution_time=2)
        backward.connect(0, 1, size_bytes=64)
        assert forward.fingerprint() == backward.fingerprint()

    def test_structure_changes_change_fingerprint(self):
        base = linear_chain([1, 2, 3], size_bytes=64)
        longer = linear_chain([1, 2, 3, 4], size_bytes=64)
        heavier = linear_chain([1, 2, 4], size_bytes=64)
        fatter = linear_chain([1, 2, 3], size_bytes=65)
        fingerprints = {
            base.fingerprint(),
            longer.fingerprint(),
            heavier.fingerprint(),
            fatter.fingerprint(),
        }
        assert len(fingerprints) == 4

    def test_period_hint_included(self):
        plain = linear_chain([1, 2])
        hinted = linear_chain([1, 2])
        hinted.period_hint = 9
        assert plain.fingerprint() != hinted.fingerprint()

    def test_profits_included(self):
        a = TaskGraph()
        a.add_op(0)
        a.add_op(1)
        a.connect(0, 1, profit_cache=10, profit_edram=1)
        b = TaskGraph()
        b.add_op(0)
        b.add_op(1)
        b.connect(0, 1, profit_cache=11, profit_edram=1)
        assert a.fingerprint() != b.fingerprint()


class TestGraphFingerprintCache:
    """The fingerprint is kept per graph state, like the topological order."""

    @staticmethod
    def fresh(ops=(1, 2, 3), edges=((0, 1), (1, 2)), period_hint=None):
        graph = TaskGraph(period_hint=period_hint)
        for op_id, length in enumerate(ops):
            graph.add_op(op_id, execution_time=length)
        for producer, consumer in edges:
            graph.connect(producer, consumer)
        return graph

    def test_repeat_calls_hash_once(self):
        graph = self.fresh()
        first = graph.fingerprint()
        assert graph._fingerprint == first
        assert graph.fingerprint() is first

    def test_add_operation_resets(self):
        graph = self.fresh()
        before = graph.fingerprint()
        graph.add_op(3, execution_time=4)
        assert graph.fingerprint() != before
        assert graph.fingerprint() == self.fresh(ops=(1, 2, 3, 4)).fingerprint()

    def test_add_edge_resets(self):
        graph = self.fresh()
        before = graph.fingerprint()
        graph.connect(0, 2)
        assert graph.fingerprint() != before
        assert graph.fingerprint() == self.fresh(
            edges=((0, 1), (1, 2), (0, 2))
        ).fingerprint()

    def test_period_hint_change_resets(self):
        graph = self.fresh()
        before = graph.fingerprint()
        graph.period_hint = 9
        assert graph.fingerprint() != before
        assert graph.fingerprint() == self.fresh(period_hint=9).fingerprint()
        graph.period_hint = None
        assert graph.fingerprint() == before
