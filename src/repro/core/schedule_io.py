"""Serialize complete periodic schedules (compile once, deploy many).

A :class:`PeriodicSchedule` is the pipeline's deployable artifact: the
kernel placements, the retiming function and the per-edge placements fully
determine execution. This module round-trips schedules (graph included)
through JSON so a schedule compiled offline can be shipped to a runtime,
archived with an experiment, or diffed across pipeline versions.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Optional, Union

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

FORMAT_VERSION = 1


def schedule_to_dict(schedule: PeriodicSchedule) -> Dict[str, Any]:
    """Serialize a schedule (and its graph) to a JSON-compatible dict."""
    return {
        "format_version": FORMAT_VERSION,
        "graph": graph_to_dict(schedule.graph),
        "period": schedule.period,
        "kernel": [
            {
                "op_id": p.op_id,
                "pe": p.pe,
                "start": p.start,
                "finish": p.finish,
            }
            for p in schedule.kernel.placements.values()
        ],
        "retiming": {str(k): v for k, v in schedule.retiming.items()},
        "edge_retiming": [
            {"producer": i, "consumer": j, "value": v}
            for (i, j), v in schedule.edge_retiming.items()
        ],
        "placements": [
            {"producer": i, "consumer": j, "where": p.value}
            for (i, j), p in schedule.placements.items()
        ],
        "transfer_times": [
            {"producer": i, "consumer": j, "units": t}
            for (i, j), t in schedule.transfer_times.items()
        ],
    }


def schedule_from_dict(
    payload: Dict[str, Any], graph: Optional[TaskGraph] = None
) -> PeriodicSchedule:
    """Deserialize and semantically validate a schedule.

    ``graph``, when given, is the graph the schedule was compiled for,
    already held by the caller: the schedule is built on it and the
    embedded copy is not parsed. Validation runs against whichever graph
    the schedule ends up on.
    """
    if not isinstance(payload, dict):
        raise ScheduleError(
            f"schedule payload must be an object, not {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != FORMAT_VERSION:
        raise ScheduleError(f"unsupported schedule format version {version!r}")
    if graph is None:
        graph = graph_from_dict(payload["graph"])
    kernel = KernelSchedule(
        period=int(payload["period"]),
        placements={
            int(rec["op_id"]): PlacedOp(
                int(rec["op_id"]), int(rec["pe"]),
                int(rec["start"]), int(rec["finish"]),
            )
            for rec in payload["kernel"]
        },
    )
    schedule = PeriodicSchedule(
        graph=graph,
        kernel=kernel,
        retiming={int(k): int(v) for k, v in payload["retiming"].items()},
        edge_retiming={
            (int(r["producer"]), int(r["consumer"])): int(r["value"])
            for r in payload["edge_retiming"]
        },
        placements={
            (int(r["producer"]), int(r["consumer"])): Placement(r["where"])
            for r in payload["placements"]
        },
        transfer_times={
            (int(r["producer"]), int(r["consumer"])): int(r["units"])
            for r in payload["transfer_times"]
        },
    )
    validate_periodic_schedule(schedule)
    return schedule


def schedule_to_json(
    schedule: PeriodicSchedule, path: Union[str, Path]
) -> None:
    """Write a schedule to ``path`` as JSON."""
    Path(path).write_text(json.dumps(schedule_to_dict(schedule), indent=2))


def schedule_from_json(path: Union[str, Path]) -> PeriodicSchedule:
    """Load (and validate) a schedule written by :func:`schedule_to_json`."""
    return schedule_from_dict(json.loads(Path(path).read_text()))
