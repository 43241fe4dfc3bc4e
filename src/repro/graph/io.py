"""JSON (de)serialization for task graphs.

A stable on-disk format lets experiments pin exact workloads and lets users
bring their own graphs to the Para-CONV pipeline::

    {"name": "...", "period_hint": null,
     "operations": [{"op_id": 0, "name": "conv1", "kind": "conv",
                     "execution_time": 2, "work": 0}, ...],
     "edges": [{"producer": 0, "consumer": 1, "size_bytes": 1024,
                "profit_cache": 10, "profit_edram": 1}, ...]}

Malformed input (not an object, a missing or non-integer field, an
unknown ``kind``, invalid JSON) raises :class:`GraphValidationError`
naming the offending record, e.g. ``operations[3]``.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Callable, Dict, Union

from repro.graph.taskgraph import (
    GraphValidationError,
    IntermediateResult,
    Operation,
    OperationKind,
    TaskGraph,
)

FORMAT_VERSION = 1

_MISSING = object()


def graph_to_dict(graph: TaskGraph) -> Dict[str, Any]:
    """Serialize ``graph`` to a JSON-compatible dictionary."""
    return {
        "format_version": FORMAT_VERSION,
        "name": graph.name,
        "period_hint": graph.period_hint,
        # fused_count emitted only when non-default so files written
        # before fused lowering existed round-trip byte-identically.
        "operations": [
            {
                "op_id": op.op_id,
                "name": op.name,
                "kind": op.kind.value,
                "execution_time": op.execution_time,
                "work": op.work,
                **(
                    {"fused_count": op.fused_count}
                    if op.fused_count != 1
                    else {}
                ),
            }
            for op in graph.operations()
        ],
        "edges": [
            {
                "producer": e.producer,
                "consumer": e.consumer,
                "size_bytes": e.size_bytes,
                "profit_cache": e.profit_cache,
                "profit_edram": e.profit_edram,
            }
            for e in graph.edges()
        ],
    }


def _int_field(record: Dict[str, Any], name: str, default: Any = _MISSING) -> int:
    value = record.get(name, default)
    if value is _MISSING:
        raise GraphValidationError(f"missing field {name!r}")
    try:
        return int(value)
    except (TypeError, ValueError):
        raise GraphValidationError(
            f"field {name!r} must be an integer, got {value!r}"
        ) from None


def _kind_field(record: Dict[str, Any]) -> OperationKind:
    value = record.get("kind", OperationKind.CONV.value)
    try:
        return OperationKind(value)
    except ValueError:
        known = ", ".join(kind.value for kind in OperationKind)
        raise GraphValidationError(
            f"kind {value!r} is not one of {known}"
        ) from None


def _operation(record: Dict[str, Any]) -> Operation:
    return Operation(
        op_id=_int_field(record, "op_id"),
        name=record.get("name", ""),
        kind=_kind_field(record),
        execution_time=_int_field(record, "execution_time", 1),
        work=_int_field(record, "work", 0),
        fused_count=_int_field(record, "fused_count", 1),
    )


def _edge(record: Dict[str, Any]) -> IntermediateResult:
    return IntermediateResult(
        producer=_int_field(record, "producer"),
        consumer=_int_field(record, "consumer"),
        size_bytes=_int_field(record, "size_bytes", 1),
        profit_cache=_int_field(record, "profit_cache", 10),
        profit_edram=_int_field(record, "profit_edram", 1),
    )


def _load_section(
    payload: Dict[str, Any],
    section: str,
    parse: Callable[[Dict[str, Any]], Any],
    add: Callable[[Any], Any],
) -> None:
    """Parse and add every record of ``section``, naming a bad one."""
    records = payload.get(section, [])
    if not isinstance(records, list):
        raise GraphValidationError(
            f"{section!r} must be a list of records, "
            f"got {type(records).__name__}"
        )
    for index, record in enumerate(records):
        try:
            if not isinstance(record, dict):
                raise GraphValidationError(f"must be an object, got {record!r}")
            add(parse(record))
        except GraphValidationError as exc:
            raise GraphValidationError(f"{section}[{index}]: {exc}") from exc


def graph_from_dict(payload: Dict[str, Any]) -> TaskGraph:
    """Deserialize a graph produced by :func:`graph_to_dict`."""
    if not isinstance(payload, dict):
        raise GraphValidationError(
            f"task-graph payload must be an object, "
            f"got {type(payload).__name__}"
        )
    version = payload.get("format_version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise GraphValidationError(
            f"unsupported task-graph format version {version}"
        )
    graph = TaskGraph(
        name=payload.get("name", "taskgraph"),
        period_hint=payload.get("period_hint"),
    )
    _load_section(payload, "operations", _operation, graph.add_operation)
    _load_section(payload, "edges", _edge, graph.add_edge)
    graph.validate()
    return graph


def graph_to_json(graph: TaskGraph, path: Union[str, Path]) -> None:
    """Write ``graph`` to ``path`` as pretty-printed JSON."""
    Path(path).write_text(json.dumps(graph_to_dict(graph), indent=2))


def graph_from_json(path: Union[str, Path]) -> TaskGraph:
    """Load a graph from a JSON file written by :func:`graph_to_json`."""
    try:
        payload = json.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise GraphValidationError(f"{path}: invalid JSON: {exc}") from exc
    return graph_from_dict(payload)
