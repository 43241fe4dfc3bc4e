"""Synthetic task-graph generators (paper Section 4.1).

The paper evaluates on 12 task graphs "obtained by running several CNN
applications" and reports only their vertex/edge counts (Table 1). The
generator here reproduces those counts *exactly* with a seeded, layered
TGFF-style construction:

1. vertices ``0 .. n-1`` are laid out in topological order,
2. every non-source vertex receives one backbone edge from a nearby earlier
   vertex (guaranteeing a connected layered DAG, as CNN dataflows are),
3. the remaining edges are drawn uniformly from the not-yet-used forward
   pairs within a locality window, mimicking the short-range skip/branch
   connections of inception-style networks.

Execution times, intermediate-result sizes and conv/pool kinds are drawn
from seeded distributions so every benchmark is fully reproducible.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.graph.taskgraph import (
    GraphValidationError,
    IntermediateResult,
    OperationKind,
    TaskGraph,
)

#: Published (num_vertices, num_edges) of the paper's benchmarks (Table 1).
BENCHMARK_SIZES: Dict[str, Tuple[int, int]] = {
    "cat": (9, 21),
    "car": (13, 28),
    "flower": (21, 51),
    "character-1": (46, 121),
    "character-2": (52, 130),
    "image-compress": (70, 178),
    "stock-predict": (83, 218),
    "string-matching": (102, 267),
    "shortest-path": (191, 506),
    "speech-1": (247, 652),
    "speech-2": (369, 981),
    "protein": (546, 1449),
}

#: Stable per-benchmark seeds so graphs never change between runs.
_BENCHMARK_SEEDS: Dict[str, int] = {
    name: 0xC0DE + index for index, name in enumerate(BENCHMARK_SIZES)
}


@dataclass(frozen=True)
class GeneratorParams:
    """Tunable knobs of :class:`SyntheticGraphGenerator`.

    Attributes:
        locality: maximum topological distance an edge may span, as a
            fraction of ``n`` (CNN dataflows are short-range); at least a
            window of 8 vertices is always allowed so tiny graphs stay
            constructible.
        min_exec / max_exec: inclusive range of operation execution times.
        min_size / max_size: inclusive range of intermediate-result sizes
            (bytes).
        pool_fraction: fraction of vertices marked as pooling operations.
    """

    locality: float = 0.25
    min_exec: int = 1
    max_exec: int = 3
    min_size: int = 256
    max_size: int = 4096
    pool_fraction: float = 0.2

    def __post_init__(self) -> None:
        if not 0 < self.locality <= 1:
            raise GraphValidationError("locality must be in (0, 1]")
        if self.min_exec < 1 or self.max_exec < self.min_exec:
            raise GraphValidationError("invalid execution-time range")
        if self.min_size < 1 or self.max_size < self.min_size:
            raise GraphValidationError("invalid size range")
        if not 0 <= self.pool_fraction < 1:
            raise GraphValidationError("pool_fraction must be in [0, 1)")


class SyntheticGraphGenerator:
    """Seeded layered-DAG generator with exact vertex/edge counts."""

    def __init__(self, params: Optional[GeneratorParams] = None):
        self.params = params or GeneratorParams()

    def generate(
        self,
        num_vertices: int,
        num_edges: int,
        seed: int = 0,
        name: str = "synthetic",
    ) -> TaskGraph:
        """Generate a DAG with exactly the requested vertex and edge counts.

        Raises :class:`GraphValidationError` when the request is
        unsatisfiable (fewer edges than needed for weak connectivity, or more
        than the forward pairs available inside the locality window).
        """
        if num_vertices < 2:
            raise GraphValidationError("need at least 2 vertices")
        if num_edges < num_vertices - 1:
            raise GraphValidationError(
                f"need >= {num_vertices - 1} edges to keep {num_vertices} "
                "vertices connected"
            )
        window = self._window(num_vertices)
        capacity = self._capacity(num_vertices, window)
        if num_edges > capacity:
            raise GraphValidationError(
                f"{num_edges} edges exceed the {capacity} forward pairs "
                f"available with locality window {window}"
            )

        rng = random.Random(seed)
        # ``rng.randint(a, b)`` is ``a + rng._randbelow(b - a + 1)`` in
        # CPython; drawing through ``_randbelow`` directly keeps every
        # draw and skips randint/randrange's argument handling, the bulk
        # of this loop's cost.
        below = rng._randbelow
        params = self.params
        graph = TaskGraph(name=name)
        pool_count = int(params.pool_fraction * num_vertices)
        pool_ids = set(rng.sample(range(1, num_vertices), pool_count)) if pool_count else set()
        exec_span = params.max_exec - params.min_exec + 1
        for op_id in range(num_vertices):
            graph.add_op(
                op_id,
                execution_time=params.min_exec + below(exec_span),
                kind=OperationKind.POOL if op_id in pool_ids else OperationKind.CONV,
            )

        used = set()
        # Backbone: one incoming edge per non-source vertex, short range.
        for consumer in range(1, num_vertices):
            low = consumer - window if consumer > window else 0
            used.add((low + below(consumer - low), consumer))
        # Extra edges: sample unused forward pairs inside the window.
        while len(used) < num_edges:
            consumer = 1 + below(num_vertices - 1)
            low = consumer - window if consumer > window else 0
            used.add((low + below(consumer - low), consumer))

        size_span = params.max_size - params.min_size + 1
        add_edge = graph.add_edge
        for producer, consumer in sorted(used):
            add_edge(
                IntermediateResult(
                    producer, consumer, params.min_size + below(size_span)
                )
            )
        graph.validate()
        assert graph.num_vertices == num_vertices
        assert graph.num_edges == num_edges
        return graph

    def _window(self, num_vertices: int) -> int:
        return max(8, int(self.params.locality * num_vertices))

    @staticmethod
    def _capacity(num_vertices: int, window: int) -> int:
        """Number of forward pairs ``(i, j)`` with ``0 < j - i <= window``."""
        total = 0
        for consumer in range(1, num_vertices):
            total += min(window, consumer)
        return total


def generate_series_parallel(
    depth: int,
    branches: int,
    seed: int = 0,
    params: Optional[GeneratorParams] = None,
    name: str = "series-parallel",
) -> TaskGraph:
    """A series-parallel fork/join graph (inception-module macro-structure).

    ``depth`` fork/join stages in series; each stage forks into
    ``branches`` parallel two-operation branches that join into a single
    merge vertex -- the shape of stacked inception modules, and a useful
    structural contrast to the window-local random family when checking
    that conclusions are not generator artifacts.
    """
    if depth < 1 or branches < 1:
        raise GraphValidationError("depth and branches must be >= 1")
    rng = random.Random(seed)
    p = params or GeneratorParams()
    graph = TaskGraph(name=name)

    def new_op(op_id: int) -> int:
        graph.add_op(
            op_id,
            execution_time=rng.randint(p.min_exec, p.max_exec),
            kind=OperationKind.CONV,
        )
        return op_id

    def connect(src: int, dst: int) -> None:
        graph.connect(src, dst, size_bytes=rng.randint(p.min_size, p.max_size))

    next_id = 0
    source = new_op(next_id)
    next_id += 1
    for _stage in range(depth):
        join = None
        branch_tails = []
        for _branch in range(branches):
            first = new_op(next_id)
            next_id += 1
            second = new_op(next_id)
            next_id += 1
            connect(source, first)
            connect(first, second)
            branch_tails.append(second)
        join = new_op(next_id)
        next_id += 1
        for tail in branch_tails:
            connect(tail, join)
        source = join
    graph.validate()
    return graph


def synthetic_benchmark(
    name: str,
    params: Optional[GeneratorParams] = None,
    seed: Optional[int] = None,
) -> TaskGraph:
    """Regenerate one of the paper's named benchmarks by exact size.

    ``synthetic_benchmark("protein")`` yields a 546-vertex / 1449-edge graph
    identical across runs (fixed per-benchmark seed unless overridden).
    """
    try:
        num_vertices, num_edges = BENCHMARK_SIZES[name]
    except KeyError:
        known = ", ".join(sorted(BENCHMARK_SIZES))
        raise GraphValidationError(
            f"unknown benchmark {name!r}; known benchmarks: {known}"
        ) from None
    generator = SyntheticGraphGenerator(params)
    actual_seed = _BENCHMARK_SEEDS[name] if seed is None else seed
    return generator.generate(num_vertices, num_edges, seed=actual_seed, name=name)

