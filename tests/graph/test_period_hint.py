"""Regression tests pinning ``period_hint`` semantics across rewrites.

The hint is a statement about a graph's *execution times*: fusing
rewrites that change scheduling granularity (``fuse_stages``,
``coarsen_chains`` when anything actually fused) must drop it, and a
no-op rewrite keeps it.
"""

from __future__ import annotations

from repro.graph.taskgraph import TaskGraph
from repro.graph.transforms import coarsen_chains, fuse_stages


def hinted_chain(stages: int = 4, hint: int = 10) -> TaskGraph:
    graph = TaskGraph(name="hinted", period_hint=hint)
    for idx in range(stages):
        graph.add_op(idx, execution_time=3)
    for idx in range(stages - 1):
        graph.connect(idx, idx + 1, size_bytes=128)
    graph.validate()
    return graph


def branchy_graph(hint: int = 10) -> TaskGraph:
    """Diamond: no linear chain for coarsen_chains to fuse."""
    graph = TaskGraph(name="branchy", period_hint=hint)
    for idx in range(4):
        graph.add_op(idx, execution_time=2)
    graph.connect(0, 1)
    graph.connect(0, 2)
    graph.connect(1, 3)
    graph.connect(2, 3)
    graph.validate()
    return graph


class TestFusingRewrites:
    def test_fuse_stages_drops_hint(self):
        fused = fuse_stages(hinted_chain(hint=10), [(0, 1)])
        assert fused.period_hint is None

    def test_fuse_stages_noop_keeps_hint(self):
        fused = fuse_stages(hinted_chain(hint=10), [])
        assert fused.period_hint == 10

    def test_coarsen_chains_drops_hint_when_fusing(self):
        coarse = coarsen_chains(hinted_chain(hint=10))
        assert coarse.num_vertices == 1  # the chain fused
        assert coarse.period_hint is None

    def test_coarsen_chains_noop_keeps_hint(self):
        coarse = coarsen_chains(branchy_graph(hint=10))
        assert coarse.num_vertices == 4  # nothing fused
        assert coarse.period_hint == 10


class TestRandwiredLowering:
    def test_randwired_graphs_carry_no_stale_hint(self):
        from repro.graph.randwired import randwired_benchmark

        assert randwired_benchmark("randwired-er").period_hint is None
