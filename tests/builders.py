"""Graph builders shared by test modules and fixtures."""

from __future__ import annotations

from typing import Sequence

from repro.graph.taskgraph import TaskGraph


def linear_chain(
    lengths: Sequence[int], name: str = "chain", size_bytes: int = 1
) -> TaskGraph:
    """Build a simple pipeline graph ``T_0 -> T_1 -> ... -> T_{n-1}``.

    ``lengths[k]`` is the execution time of the k-th stage.
    """
    graph = TaskGraph(name=name)
    for idx, length in enumerate(lengths):
        graph.add_op(idx, execution_time=length)
    for idx in range(len(lengths) - 1):
        graph.connect(idx, idx + 1, size_bytes=size_bytes)
    graph.validate()
    return graph
