"""Tests for the Graphviz DOT exporter."""

from repro.core.paraconv import ParaConv
from repro.graph.dot import graph_to_dot, result_to_dot
from repro.pim.memory import Placement


class TestGraphToDot:
    def test_contains_all_nodes_and_edges(self, diamond_graph):
        dot = graph_to_dot(diamond_graph)
        for op in diamond_graph.operations():
            assert f"n{op.op_id} [" in dot
        for edge in diamond_graph.edges():
            assert f"n{edge.producer} -> n{edge.consumer}" in dot
        assert dot.startswith('digraph "diamond"')
        assert dot.rstrip().endswith("}")

    def test_retiming_annotations(self, diamond_graph):
        dot = graph_to_dot(diamond_graph, retiming={0: 2, 1: 1, 2: 1, 3: 0})
        assert "R=2" in dot
        assert "R=0" in dot

    def test_placement_styles(self, diamond_graph):
        placements = {
            (0, 1): Placement.CACHE,
            (0, 2): Placement.EDRAM,
            (1, 3): Placement.CACHE,
            (2, 3): Placement.EDRAM,
        }
        dot = graph_to_dot(diamond_graph, placements=placements)
        assert dot.count("style=bold") == 2
        assert dot.count("style=dashed") == 2

    def test_quote_escaping(self):
        from repro.graph.taskgraph import TaskGraph

        graph = TaskGraph(name='weird"name')
        graph.add_op(0, name='op"zero')
        graph.add_op(1)
        graph.connect(0, 1)
        dot = graph_to_dot(graph)
        assert '\\"' in dot

    def test_result_to_dot(self, figure2_graph, small_config):
        result = ParaConv(small_config).run(figure2_graph)
        dot = result_to_dot(result)
        assert "R=" in dot
        assert "->" in dot
