"""Unit tests for the core task-graph data structures."""

import pytest

from repro.graph.taskgraph import (
    GraphValidationError,
    IntermediateResult,
    Operation,
    OperationKind,
    TaskGraph,
    column_of,
)
from tests.builders import linear_chain


class TestOperation:
    def test_defaults(self):
        op = Operation(op_id=3)
        assert op.name == "T3"
        assert op.kind is OperationKind.CONV
        assert op.execution_time == 1

    def test_negative_id_rejected(self):
        with pytest.raises(GraphValidationError):
            Operation(op_id=-1)

    def test_zero_execution_time_rejected(self):
        with pytest.raises(GraphValidationError):
            Operation(op_id=0, execution_time=0)

    def test_negative_work_rejected(self):
        with pytest.raises(GraphValidationError):
            Operation(op_id=0, work=-5)

    def test_with_execution_time(self):
        op = Operation(op_id=0, execution_time=2, name="conv1")
        changed = op.with_execution_time(7)
        assert changed.execution_time == 7
        assert changed.name == "conv1"
        assert op.execution_time == 2  # original untouched

    def test_kind_is_compute(self):
        assert OperationKind.CONV.is_compute
        assert OperationKind.POOL.is_compute
        assert not OperationKind.INPUT.is_compute
        assert not OperationKind.OUTPUT.is_compute


class TestIntermediateResult:
    def test_key(self):
        edge = IntermediateResult(producer=1, consumer=2)
        assert edge.key == (1, 2)

    def test_self_loop_rejected(self):
        with pytest.raises(GraphValidationError):
            IntermediateResult(producer=1, consumer=1)

    def test_non_positive_size_rejected(self):
        with pytest.raises(GraphValidationError):
            IntermediateResult(producer=0, consumer=1, size_bytes=0)

    def test_profit_ordering_enforced(self):
        # P_alpha (cache) must dominate P_beta (eDRAM)
        with pytest.raises(GraphValidationError):
            IntermediateResult(
                producer=0, consumer=1, profit_cache=1, profit_edram=5
            )

    def test_negative_profit_rejected(self):
        with pytest.raises(GraphValidationError):
            IntermediateResult(
                producer=0, consumer=1, profit_cache=-1, profit_edram=-2
            )


class TestTaskGraphConstruction:
    def test_duplicate_op_id_rejected(self):
        graph = TaskGraph()
        graph.add_op(0)
        with pytest.raises(GraphValidationError):
            graph.add_op(0)

    def test_edge_requires_existing_endpoints(self):
        graph = TaskGraph()
        graph.add_op(0)
        with pytest.raises(GraphValidationError):
            graph.connect(0, 1)
        with pytest.raises(GraphValidationError):
            graph.connect(2, 0)

    def test_duplicate_edge_rejected(self):
        graph = TaskGraph()
        graph.add_op(0)
        graph.add_op(1)
        graph.connect(0, 1)
        with pytest.raises(GraphValidationError):
            graph.connect(0, 1)

    def test_counts(self, diamond_graph):
        assert diamond_graph.num_vertices == 4
        assert diamond_graph.num_edges == 4
        assert len(diamond_graph) == 4

    def test_contains_and_iter(self, diamond_graph):
        assert 0 in diamond_graph
        assert 99 not in diamond_graph
        assert [op.op_id for op in diamond_graph] == [0, 1, 2, 3]

    def test_unknown_lookup_raises(self, diamond_graph):
        with pytest.raises(GraphValidationError):
            diamond_graph.operation(42)
        with pytest.raises(GraphValidationError):
            diamond_graph.edge(0, 3)


class TestTaskGraphTopology:
    def test_sources_and_sinks(self, diamond_graph):
        assert diamond_graph.sources() == [0]
        assert diamond_graph.sinks() == [3]

    def test_degrees(self, diamond_graph):
        assert diamond_graph.out_degree(0) == 2
        assert diamond_graph.in_degree(3) == 2
        assert diamond_graph.predecessors(3) == [1, 2]
        assert diamond_graph.successors(0) == [1, 2]

    def test_in_out_edges(self, diamond_graph):
        keys = {e.key for e in diamond_graph.out_edges(0)}
        assert keys == {(0, 1), (0, 2)}
        keys = {e.key for e in diamond_graph.in_edges(3)}
        assert keys == {(1, 3), (2, 3)}

    def test_topological_order_valid(self, diamond_graph):
        order = diamond_graph.topological_order()
        position = {op: idx for idx, op in enumerate(order)}
        for edge in diamond_graph.edges():
            assert position[edge.producer] < position[edge.consumer]

    def test_topological_order_deterministic(self, figure2_graph):
        assert (
            figure2_graph.topological_order()
            == figure2_graph.topological_order()
        )

    def test_cycle_detected(self):
        graph = TaskGraph()
        graph.add_op(0)
        graph.add_op(1)
        graph.connect(0, 1)
        graph.connect(1, 0)
        assert not graph.is_acyclic()
        with pytest.raises(GraphValidationError, match="cycle"):
            graph.validate()

    def test_empty_graph_invalid(self):
        with pytest.raises(GraphValidationError, match="empty"):
            TaskGraph().validate()

    def test_work_accounting(self, diamond_graph):
        assert diamond_graph.total_work() == 6
        assert diamond_graph.max_execution_time() == 2
        assert diamond_graph.total_intermediate_bytes() == 2 * 1024 + 2 * 2048


class TestTaskGraphDerivation:
    def test_copy_is_independent(self, diamond_graph):
        clone = diamond_graph.copy()
        clone.add_op(10)
        assert 10 not in diamond_graph
        assert clone.num_edges == diamond_graph.num_edges

    def test_subgraph_induced(self, figure2_graph):
        sub = figure2_graph.subgraph([0, 1, 3])
        assert sub.num_vertices == 3
        assert {e.key for e in sub.edges()} == {(0, 1), (1, 3)}

    def test_subgraph_unknown_id_raises(self, figure2_graph):
        with pytest.raises(GraphValidationError):
            figure2_graph.subgraph([0, 77])

    def test_relabelled_compacts_ids(self):
        graph = TaskGraph()
        graph.add_op(10, execution_time=2)
        graph.add_op(20, execution_time=3)
        graph.connect(10, 20, size_bytes=64)
        flat = graph.relabelled()
        assert [op.op_id for op in flat.operations()] == [0, 1]
        assert flat.edge(0, 1).size_bytes == 64
        assert flat.total_work() == graph.total_work()

    def test_linear_chain(self):
        chain = linear_chain([1, 2, 3])
        assert chain.num_vertices == 3
        assert chain.num_edges == 2
        assert chain.sources() == [0]
        assert chain.sinks() == [2]
        assert chain.total_work() == 6

    def test_repr(self, diamond_graph):
        text = repr(diamond_graph)
        assert "diamond" in text
        assert "vertices=4" in text


class TestRowColumns:
    def test_views_of_one_layout_compare_their_columns(self):
        index = linear_chain([1, 1, 1, 1]).index()
        view = index.by_row(["a", "b", "c"])
        assert view == index.by_row(["a", "b", "c"])
        assert view != index.by_row(["a", "b", "x"])
        del view[(1, 2)]  # stores None: missing on both sides or neither
        assert view == index.by_row(["a", None, "c"])
        assert view != index.by_row(["a", "b", "c"])
        assert view == {(0, 1): "a", (2, 3): "c"}
        other = linear_chain([1, 1, 1, 1]).index().by_row(["a", None, "c"])
        assert view == other  # another layout: compared as mappings

    def test_column_of_reads_a_view_of_the_keys_in_place(self):
        index = linear_chain([1, 1, 1]).index()
        column = ["a", "b"]
        assert column_of(index.by_row(column), index.edge_keys) is column
        assert column_of({(1, 2): "y", (0, 1): "x"}, index.edge_keys) == [
            "x", "y",
        ]
        del index.by_row(column)[(0, 1)]
        with pytest.raises(KeyError):
            column_of(index.by_row(column), index.edge_keys)
