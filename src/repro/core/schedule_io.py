"""Serialize complete periodic schedules (compile once, deploy many).

A :class:`PeriodicSchedule` is the pipeline's deployable artifact: the
kernel placements, the retiming function and the per-edge placements fully
determine execution. This module owns the one JSON layout of a schedule,
used both by the plan payload (:mod:`repro.runtime.plan_cache`) and by the
standalone artifact this module writes.

The layout (format version 2) does not carry the graph. It is a handful
of flat arrays, read back against the graph the schedule was compiled
for:

* ``pe``, ``start``, ``finish`` (the kernel) and ``retiming``: one entry
  per operation, in sorted op-id order;
* ``edge_retiming`` and ``transfer_times``: one entry per intermediate
  result, in sorted ``(producer, consumer)`` order;
* ``placements``: a string of one code per intermediate result in the
  same order, ``c`` for cache and ``e`` for eDRAM.

Sorted order, not the graph's insertion order: the graph fingerprint
ignores insertion order, so two graphs with one fingerprint may list
their edges differently, and both must read the same arrays the same
way. A schedule's columns are laid out in the graph's index space
(:meth:`~repro.graph.taskgraph.TaskGraph.index`), which also depends on
content only; writing and reading map the arrays through one permutation
of the ops and one of the edges. Every array's length is checked before
it is mapped.

The standalone artifact (:func:`schedule_to_json`) wraps the layout in a
``{"graph": ..., "schedule": ...}`` envelope, so a schedule compiled
offline can be shipped to a runtime, archived with an experiment, or
diffed across pipeline versions on its own.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Sequence, Tuple, Union

from repro.core.schedule import (
    KernelSchedule,
    PeriodicSchedule,
    ScheduleError,
    check_windows,
    validate_kernel,
    validate_periodic_schedule,
)
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.pim.memory import Placement

FORMAT_VERSION = 2

#: One-character code of each placement in the ``placements`` string.
_CODE_OF: Dict[Placement, str] = {Placement.CACHE: "c", Placement.EDRAM: "e"}
_PLACEMENT_OF = {code: placement for placement, code in _CODE_OF.items()}


def _sorted_order(graph: TaskGraph) -> Tuple[List[int], List[int]]:
    """The vertices of ``graph.index()`` in op-id order and its edge rows
    in edge-key order: entry ``k`` of a payload array belongs to vertex
    (or row) ``order[k]``."""
    index = graph.index()
    return (
        sorted(range(len(index.op_ids)), key=index.op_ids.__getitem__),
        sorted(range(len(index.edge_keys)), key=index.edge_keys.__getitem__),
    )


def schedule_to_dict(schedule: PeriodicSchedule) -> Dict[str, Any]:
    """Serialize a schedule (without its graph) to a JSON-compatible dict."""
    ops, edges = _sorted_order(schedule.graph)
    kernel = schedule.kernel
    return {
        "format_version": FORMAT_VERSION,
        "period": schedule.period,
        "pe": [kernel.pe[v] for v in ops],
        "start": [kernel.start[v] for v in ops],
        "finish": [kernel.finish[v] for v in ops],
        "retiming": [schedule.vertex_r[v] for v in ops],
        "edge_retiming": [schedule.edge_r[e] for e in edges],
        "placements": "".join(_CODE_OF[schedule.edge_placement[e]] for e in edges),
        "transfer_times": [schedule.edge_transfer[e] for e in edges],
    }


def _column(payload: Any, order: Sequence[int]) -> List:
    """The payload array ``payload`` (entries in sorted key order) as a
    column in index order; its length must be ``len(order)``."""
    column = [None] * len(order)
    for position, value in zip(order, payload):
        column[position] = value
    return column


def _ints(payload: Dict[str, Any], name: str, order: Sequence[int]) -> List[int]:
    """``payload[name]`` as an int column, which must number exactly
    ``len(order)`` entries."""
    values = payload[name]
    if not isinstance(values, list) or len(values) != len(order):
        raise ScheduleError(
            f"{name} must be a list of {len(order)} entries, not "
            f"{len(values) if isinstance(values, list) else type(values).__name__}"
        )
    return _column(list(map(int, values)), order)


def schedule_from_dict(
    payload: Dict[str, Any], graph: TaskGraph
) -> PeriodicSchedule:
    """Deserialize and semantically validate a schedule of ``graph``.

    ``graph`` is the graph the schedule was compiled for; the schedule is
    built on it. Any payload of the wrong shape raises
    :class:`ScheduleError`, as does a kernel row that is not a non-empty
    window on a non-negative PE (:func:`check_windows`) or a schedule
    that breaks an invariant of :func:`validate_periodic_schedule`.
    """
    if not isinstance(payload, dict):
        raise ScheduleError(
            f"schedule payload must be an object, not {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ScheduleError(f"unsupported schedule format version {version!r}")
    ops, edges = _sorted_order(graph)
    try:
        codes = payload["placements"]
        if not isinstance(codes, str) or len(codes) != len(edges):
            raise ScheduleError(
                f"placements must be a string of {len(edges)} codes"
            )
        unknown = set(codes) - _PLACEMENT_OF.keys()
        if unknown:
            raise ScheduleError(
                f"unknown placement codes {sorted(unknown)}; known: "
                f"{sorted(_PLACEMENT_OF)}"
            )
        kernel = KernelSchedule(
            int(payload["period"]),
            graph.index().op_ids,
            _ints(payload, "pe", ops),
            _ints(payload, "start", ops),
            _ints(payload, "finish", ops),
        )
        schedule = PeriodicSchedule(
            graph,
            kernel,
            _ints(payload, "retiming", ops),
            _ints(payload, "edge_retiming", edges),
            _column(list(map(_PLACEMENT_OF.get, codes)), edges),
            _ints(payload, "transfer_times", edges),
        )
    except ScheduleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule payload: {exc!r}") from exc
    check_windows(kernel)
    validate_periodic_schedule(schedule)
    return schedule


def schedule_to_json(
    schedule: PeriodicSchedule, path: Union[str, Path]
) -> None:
    """Write a schedule and its graph to ``path`` as JSON."""
    envelope = {
        "graph": graph_to_dict(schedule.graph),
        "schedule": schedule_to_dict(schedule),
    }
    Path(path).write_text(json.dumps(envelope, indent=2))


def schedule_from_json(path: Union[str, Path]) -> PeriodicSchedule:
    """Load (and validate) a schedule written by :func:`schedule_to_json`.

    The artifact carries no array width, so the kernel is checked with
    :func:`validate_kernel` against as many PEs as it uses: no two ops
    overlap on one PE, and every window lies in the period and lasts
    its op's execution time.
    """
    envelope = json.loads(Path(path).read_text())
    if not isinstance(envelope, dict):
        raise ScheduleError(
            f"schedule artifact must be an object, not {type(envelope).__name__}"
        )
    try:
        graph = graph_from_dict(envelope["graph"])
    except KeyError:
        raise ScheduleError("schedule artifact has no graph") from None
    schedule = schedule_from_dict(envelope.get("schedule"), graph)
    validate_kernel(graph, schedule.kernel, max(schedule.kernel.pe) + 1)
    return schedule
