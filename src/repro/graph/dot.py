"""Graphviz DOT export for task graphs and allocation results.

Visual debugging aid: render the application DAG, optionally annotated
with a Para-CONV run's retiming values and intermediate-result placements
(cached edges solid, eDRAM edges dashed). Output is plain DOT text; render
with any Graphviz installation (``dot -Tpng graph.dot -o graph.png``).
"""

from __future__ import annotations

from typing import Mapping, Optional, Tuple

from repro.graph.taskgraph import OperationKind, TaskGraph

_KIND_SHAPES = {
    OperationKind.CONV: "box",
    OperationKind.POOL: "ellipse",
    OperationKind.FC: "hexagon",
    OperationKind.INPUT: "plaintext",
    OperationKind.OUTPUT: "plaintext",
    OperationKind.GENERIC: "box",
}


def _escape(text: str) -> str:
    return text.replace('"', r"\"")


def graph_to_dot(
    graph: TaskGraph,
    retiming: Optional[Mapping[int, int]] = None,
    placements: Optional[Mapping[Tuple[int, int], object]] = None,
) -> str:
    """Render ``graph`` as DOT text.

    Args:
        graph: the task graph.
        retiming: optional ``R(i)`` per op, shown in the node label.
        placements: optional edge placements (values with a ``.value`` of
            ``"cache"``/``"edram"``, i.e. :class:`repro.pim.memory.Placement`);
            cached edges render solid/bold, eDRAM edges dashed.
    """
    lines = [f'digraph "{_escape(graph.name)}" {{', "  rankdir=TB;"]
    for op in graph.operations():
        label = f"{op.name}\\nc={op.execution_time}"
        if retiming is not None and op.op_id in retiming:
            label += f"\\nR={retiming[op.op_id]}"
        shape = _KIND_SHAPES.get(op.kind, "box")
        lines.append(
            f'  n{op.op_id} [label="{_escape(label)}", shape={shape}];'
        )
    for edge in graph.edges():
        attributes = [f'label="{edge.size_bytes}B"']
        if placements is not None and edge.key in placements:
            placement = placements[edge.key]
            value = getattr(placement, "value", str(placement))
            if value == "cache":
                attributes.append("style=bold")
                attributes.append('color="forestgreen"')
            else:
                attributes.append("style=dashed")
                attributes.append('color="firebrick"')
        lines.append(
            f"  n{edge.producer} -> n{edge.consumer} "
            f"[{', '.join(attributes)}];"
        )
    lines.append("}")
    return "\n".join(lines)


def result_to_dot(result) -> str:
    """Render a :class:`repro.core.paraconv.ParaConvResult` with annotations."""
    return graph_to_dot(
        result.graph,
        retiming=result.schedule.retiming,
        placements=result.schedule.placements,
    )
