"""Shared fixtures: small graphs, machine configs, and the paper's example."""

from __future__ import annotations

import pytest

from repro.graph.taskgraph import OperationKind, TaskGraph
from repro.pim.config import PimConfig


@pytest.fixture
def diamond_graph() -> TaskGraph:
    """T0 -> {T1, T2} -> T3: the smallest branch-and-merge graph."""
    graph = TaskGraph(name="diamond")
    graph.add_op(0, execution_time=1)
    graph.add_op(1, execution_time=2)
    graph.add_op(2, execution_time=2)
    graph.add_op(3, execution_time=1)
    graph.connect(0, 1, size_bytes=1024)
    graph.connect(0, 2, size_bytes=1024)
    graph.connect(1, 3, size_bytes=2048)
    graph.connect(2, 3, size_bytes=2048)
    graph.validate()
    return graph


@pytest.fixture
def figure2_graph() -> TaskGraph:
    """The paper's Figure 2(b)/Figure 3 example: five operations.

    T1 feeds T2 and T3; T2 feeds T4 and T5; T3 feeds T4 and T5. Vertex
    ids are zero-based (T1 -> op 0, ...), unit execution times, and small
    intermediate results so they each fit one cache slot.
    """
    graph = TaskGraph(name="figure2")
    for op_id in range(5):
        graph.add_op(op_id, execution_time=1, kind=OperationKind.CONV)
    for producer, consumer in [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4)]:
        graph.connect(producer, consumer, size_bytes=512)
    graph.validate()
    return graph


@pytest.fixture
def chain_graph() -> TaskGraph:
    """A 6-stage pipeline with mixed execution times."""
    from tests.builders import linear_chain

    return linear_chain([1, 2, 3, 1, 2, 1], name="chain6", size_bytes=1024)


@pytest.fixture
def small_config() -> PimConfig:
    """A 4-PE machine with a tiny cache (forces allocation pressure)."""
    return PimConfig(
        num_pes=4,
        cache_bytes_per_pe=1024,
        cache_slot_bytes=512,
        iterations=100,
    )


@pytest.fixture
def paper_config() -> PimConfig:
    """The default Neurocube-style machine at 32 PEs."""
    return PimConfig(num_pes=32)
