"""Tests for graph transformations."""

from repro.graph.taskgraph import TaskGraph
from repro.graph.transforms import coarsen_chains
from tests.builders import linear_chain


class TestCoarsenChains:
    def test_pure_chain_collapses(self):
        chain = linear_chain([1, 2, 3, 4])
        coarse = coarsen_chains(chain)
        assert coarse.num_vertices == 1
        assert coarse.total_work() == 10
        assert coarse.num_edges == 0

    def test_diamond_not_collapsed(self, diamond_graph):
        coarse = coarsen_chains(diamond_graph)
        # branch/merge vertices all have degree constraints that block fusion
        assert coarse.num_vertices == 4

    def test_work_preserved(self):
        graph = TaskGraph()
        for i, c in enumerate([1, 2, 3, 1, 1]):
            graph.add_op(i, execution_time=c)
        # chain 0->1->2 then branch 2->3, 2->4
        graph.connect(0, 1)
        graph.connect(1, 2)
        graph.connect(2, 3)
        graph.connect(2, 4)
        coarse = coarsen_chains(graph)
        assert coarse.total_work() == graph.total_work()
        assert coarse.num_vertices == 3  # fused chain head + two leaves
