"""Periodic execution instances (paper Section 2.2).

A CNN is a periodically executed dataflow: every operation ``V_i`` and every
intermediate result ``I_{i,j}`` re-executes once per iteration (period
``p``). For ``V_i`` in the ``l``-th iteration, the tuple becomes::

    s_i^l = s_i + (l - 1) * p
    c_i^l = c_i
    d_i^l = d_i + (l - 1) * p      (l >= 1)

This module provides instance records carrying that arithmetic, plus a graph
unroller used by the discrete-event simulator and the correctness tests: it
expands ``K`` iterations of a (possibly retimed) periodic graph into one flat
DAG whose edges connect producer *instances* to consumer *instances*
``delta`` iterations later, where ``delta = R(i) - R(j)`` is the relative
retiming of the edge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Tuple

from repro.graph.taskgraph import GraphValidationError, TaskGraph


@dataclass(frozen=True)
class OperationInstance:
    """Operation ``V_i`` in iteration ``l`` (1-based), written ``V_i^l``."""

    op_id: int
    iteration: int

    def __post_init__(self) -> None:
        if self.iteration < 1:
            raise GraphValidationError(
                f"iterations are 1-based, got {self.iteration}"
            )

    def start_time(self, base_start: int, period: int) -> int:
        """``s_i^l = s_i + (l - 1) p``."""
        return base_start + (self.iteration - 1) * period

    def deadline(self, base_deadline: int, period: int) -> int:
        """``d_i^l = d_i + (l - 1) p``."""
        return base_deadline + (self.iteration - 1) * period

    def __str__(self) -> str:
        return f"V{self.op_id}^{self.iteration}"


@dataclass(frozen=True)
class IntermediateInstance:
    """Intermediate result ``I_{i,j}`` in iteration ``l``."""

    producer: int
    consumer: int
    iteration: int

    def __post_init__(self) -> None:
        if self.iteration < 1:
            raise GraphValidationError(
                f"iterations are 1-based, got {self.iteration}"
            )

    def __str__(self) -> str:
        return f"I({self.producer},{self.consumer})^{self.iteration}"


#: Flat dependency: producer instance -> consumer instance for one unrolled
#: intermediate result.
UnrolledEdge = Tuple[OperationInstance, OperationInstance]


def unroll(
    graph: TaskGraph,
    iterations: int,
    relative_retiming: Optional[Mapping[Tuple[int, int], int]] = None,
) -> Tuple[List[OperationInstance], List[UnrolledEdge]]:
    """Expand ``iterations`` periods of ``graph`` into a flat instance DAG.

    Args:
        graph: the periodic task graph.
        iterations: number of iterations ``K >= 1`` to unroll.
        relative_retiming: per-edge relative retiming
            ``delta(i, j) = R(i) - R(j) >= 0``. ``None`` (or a missing key)
            means ``delta = 0``: the intra-iteration dependency of the
            original, un-retimed graph.

    Returns:
        ``(instances, edges)`` where an edge connects the producer instance
        in iteration ``l`` to the consumer instance in iteration
        ``l + delta``; dependencies whose consumer iteration exceeds ``K``
        fall off the unrolled window (they constrain only later iterations).
        Producer iterations below 1 correspond to prologue-supplied data and
        are likewise omitted -- the prologue schedule materializes them.

    The result is the ground-truth dependency set used to check that retimed
    schedules preserve the original graph semantics.
    """
    if iterations < 1:
        raise GraphValidationError(f"iterations must be >= 1, got {iterations}")
    deltas = dict(relative_retiming or {})
    for key, value in deltas.items():
        if key not in {e.key for e in graph.edges()}:
            raise GraphValidationError(f"retiming given for unknown edge {key}")
        if value < 0:
            raise GraphValidationError(
                f"relative retiming of edge {key} must be >= 0, got {value}"
            )

    instances = [
        OperationInstance(op.op_id, iteration)
        for iteration in range(1, iterations + 1)
        for op in graph.operations()
    ]
    edges: List[UnrolledEdge] = []
    for edge in graph.edges():
        delta = deltas.get(edge.key, 0)
        for consumer_iter in range(1, iterations + 1):
            producer_iter = consumer_iter - delta
            if producer_iter < 1:
                continue  # produced in the prologue
            edges.append(
                (
                    OperationInstance(edge.producer, producer_iter),
                    OperationInstance(edge.consumer, consumer_iter),
                )
            )
    return instances, edges
