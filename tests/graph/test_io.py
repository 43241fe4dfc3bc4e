"""Serialization round-trip tests."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import SyntheticGraphGenerator
from repro.graph.io import (
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)
from repro.graph.taskgraph import GraphValidationError


def graphs_equal(a, b) -> bool:
    if (a.name, a.num_vertices, a.num_edges) != (b.name, b.num_vertices, b.num_edges):
        return False
    for left, right in zip(a.operations(), b.operations()):
        if left != right:
            return False
    for left, right in zip(a.edges(), b.edges()):
        if left != right:
            return False
    return True


class TestRoundTrip:
    def test_dict_round_trip(self, diamond_graph):
        restored = graph_from_dict(graph_to_dict(diamond_graph))
        assert graphs_equal(diamond_graph, restored)

    def test_json_file_round_trip(self, figure2_graph, tmp_path):
        path = tmp_path / "graph.json"
        graph_to_json(figure2_graph, path)
        restored = graph_from_json(path)
        assert graphs_equal(figure2_graph, restored)

    def test_json_is_pretty_and_versioned(self, diamond_graph, tmp_path):
        path = tmp_path / "graph.json"
        graph_to_json(diamond_graph, path)
        payload = json.loads(path.read_text())
        assert payload["format_version"] == 1
        assert payload["name"] == "diamond"
        assert len(payload["operations"]) == 4

    def test_period_hint_preserved(self, diamond_graph):
        diamond_graph.period_hint = 12
        restored = graph_from_dict(graph_to_dict(diamond_graph))
        assert restored.period_hint == 12

    @given(
        n=st.integers(min_value=2, max_value=30),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=25, deadline=None)
    def test_round_trip_random_graphs(self, n, seed):
        generator = SyntheticGraphGenerator()
        capacity = generator._capacity(n, generator._window(n))
        graph = generator.generate(n, min(n - 1 + n // 2, capacity), seed=seed)
        restored = graph_from_dict(graph_to_dict(graph))
        assert graphs_equal(graph, restored)


class TestErrors:
    def test_bad_version_rejected(self, diamond_graph):
        payload = graph_to_dict(diamond_graph)
        payload["format_version"] = 99
        with pytest.raises(GraphValidationError, match="version"):
            graph_from_dict(payload)

    def test_invalid_structure_rejected(self):
        payload = {
            "format_version": 1,
            "name": "bad",
            "operations": [{"op_id": 0}, {"op_id": 1}],
            "edges": [
                {"producer": 0, "consumer": 1},
                {"producer": 1, "consumer": 0},
            ],
        }
        with pytest.raises(GraphValidationError, match="cycle"):
            graph_from_dict(payload)

    def test_empty_payload_rejected(self):
        with pytest.raises(GraphValidationError):
            graph_from_dict({"format_version": 1, "name": "empty"})


def _payload(**changes):
    """A valid two-op payload with ``changes`` applied to its records."""
    payload = {
        "format_version": 1,
        "name": "pair",
        "operations": [{"op_id": 0}, {"op_id": 1}],
        "edges": [{"producer": 0, "consumer": 1}],
    }
    payload.update(changes)
    return payload


HOSTILE_PAYLOADS = {
    "missing-op-id": (
        _payload(operations=[{"op_id": 0}, {"name": "x"}]),
        r"operations\[1\]: missing field 'op_id'",
    ),
    "missing-consumer": (
        _payload(edges=[{"producer": 0}]),
        r"edges\[0\]: missing field 'consumer'",
    ),
    "unknown-kind": (
        _payload(operations=[{"op_id": 0}, {"op_id": 1, "kind": "warp"}]),
        r"operations\[1\]: kind 'warp' is not one of conv, pool",
    ),
    "null-execution-time": (
        _payload(operations=[{"op_id": 0, "execution_time": None}]),
        r"operations\[0\]: field 'execution_time' must be an integer, got None",
    ),
    "operations-not-a-list": (
        _payload(operations=5),
        r"'operations' must be a list of records, got int",
    ),
    "record-not-an-object": (
        _payload(edges=[[0, 1]]),
        r"edges\[0\]: must be an object",
    ),
    "top-level-list": (
        [{"op_id": 0}],
        r"payload must be an object, got list",
    ),
    "invalid-json": (b'{"operations": [', r"invalid JSON"),
    "not-utf8": (b"\xff\xfe{}", r"invalid JSON"),
}


@pytest.mark.parametrize(
    "payload, message",
    list(HOSTILE_PAYLOADS.values()),
    ids=list(HOSTILE_PAYLOADS),
)
def test_hostile_input_raises_typed_error(payload, message, tmp_path):
    raw = isinstance(payload, bytes)
    path = tmp_path / "graph.json"
    path.write_bytes(payload if raw else json.dumps(payload).encode())
    with pytest.raises(GraphValidationError, match=message):
        graph_from_json(path)
    if not raw:
        with pytest.raises(GraphValidationError, match=message):
            graph_from_dict(payload)
