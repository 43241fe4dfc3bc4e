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
way. Every array's length is checked before it is zipped with its keys.

The standalone artifact (:func:`schedule_to_json`) wraps the layout in a
``{"graph": ..., "schedule": ...}`` envelope, so a schedule compiled
offline can be shipped to a runtime, archived with an experiment, or
diffed across pipeline versions on its own.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, List, Union

from repro.core.schedule import (
    KernelSchedule,
    PeriodicSchedule,
    PlacedOp,
    ScheduleError,
    validate_periodic_schedule,
)
from repro.graph.io import graph_from_dict, graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.pim.memory import Placement

FORMAT_VERSION = 2

#: One-character code of each placement in the ``placements`` string.
_CODE_OF: Dict[Placement, str] = {Placement.CACHE: "c", Placement.EDRAM: "e"}
_PLACEMENT_OF = {code: placement for placement, code in _CODE_OF.items()}


def schedule_to_dict(schedule: PeriodicSchedule) -> Dict[str, Any]:
    """Serialize a schedule (without its graph) to a JSON-compatible dict."""
    graph = schedule.graph
    op_ids = sorted(op.op_id for op in graph)
    edge_keys = sorted(graph.edge_keys())
    kernel = [schedule.kernel.placements[op_id] for op_id in op_ids]
    return {
        "format_version": FORMAT_VERSION,
        "period": schedule.period,
        "pe": [p.pe for p in kernel],
        "start": [p.start for p in kernel],
        "finish": [p.finish for p in kernel],
        "retiming": [schedule.retiming[op_id] for op_id in op_ids],
        "edge_retiming": [schedule.edge_retiming[key] for key in edge_keys],
        "placements": "".join(
            _CODE_OF[schedule.placements[key]] for key in edge_keys
        ),
        "transfer_times": [schedule.transfer_times[key] for key in edge_keys],
    }


def _ints(payload: Dict[str, Any], name: str, length: int) -> List[int]:
    """``payload[name]`` as ints, which must number exactly ``length``."""
    values = payload[name]
    if not isinstance(values, list) or len(values) != length:
        raise ScheduleError(
            f"{name} must be a list of {length} entries, not "
            f"{len(values) if isinstance(values, list) else type(values).__name__}"
        )
    return list(map(int, values))


def schedule_from_dict(
    payload: Dict[str, Any], graph: TaskGraph
) -> PeriodicSchedule:
    """Deserialize and semantically validate a schedule of ``graph``.

    ``graph`` is the graph the schedule was compiled for; the schedule is
    built on it. Any payload of the wrong shape raises
    :class:`ScheduleError`, as does a schedule that breaks an invariant.
    """
    if not isinstance(payload, dict):
        raise ScheduleError(
            f"schedule payload must be an object, not {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ScheduleError(f"unsupported schedule format version {version!r}")
    op_ids = sorted(op.op_id for op in graph)
    edge_keys = sorted(graph.edge_keys())
    n_ops, n_edges = len(op_ids), len(edge_keys)
    try:
        codes = payload["placements"]
        if not isinstance(codes, str) or len(codes) != n_edges:
            raise ScheduleError(
                f"placements must be a string of {n_edges} codes"
            )
        unknown = set(codes) - _PLACEMENT_OF.keys()
        if unknown:
            raise ScheduleError(
                f"unknown placement codes {sorted(unknown)}; known: "
                f"{sorted(_PLACEMENT_OF)}"
            )
        kernel = KernelSchedule(
            period=int(payload["period"]),
            placements={
                op_id: PlacedOp(op_id, pe, start, finish)
                for op_id, pe, start, finish in zip(
                    op_ids,
                    _ints(payload, "pe", n_ops),
                    _ints(payload, "start", n_ops),
                    _ints(payload, "finish", n_ops),
                )
            },
        )
        schedule = PeriodicSchedule(
            graph=graph,
            kernel=kernel,
            retiming=dict(zip(op_ids, _ints(payload, "retiming", n_ops))),
            edge_retiming=dict(
                zip(edge_keys, _ints(payload, "edge_retiming", n_edges))
            ),
            placements=dict(zip(edge_keys, map(_PLACEMENT_OF.get, codes))),
            transfer_times=dict(
                zip(edge_keys, _ints(payload, "transfer_times", n_edges))
            ),
        )
    except ScheduleError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ScheduleError(f"malformed schedule payload: {exc!r}") from exc
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
    """Load (and validate) a schedule written by :func:`schedule_to_json`."""
    envelope = json.loads(Path(path).read_text())
    if not isinstance(envelope, dict):
        raise ScheduleError(
            f"schedule artifact must be an object, not {type(envelope).__name__}"
        )
    try:
        graph = graph_from_dict(envelope["graph"])
    except KeyError:
        raise ScheduleError("schedule artifact has no graph") from None
    return schedule_from_dict(envelope.get("schedule"), graph)
