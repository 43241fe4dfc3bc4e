"""Tests for periodic instances and graph unrolling."""

import pytest

from repro.graph.instances import (
    IntermediateInstance,
    OperationInstance,
    unroll,
)
from repro.graph.taskgraph import GraphValidationError


class TestInstanceArithmetic:
    def test_start_time_formula(self):
        # s_i^l = s_i + (l - 1) * p
        inst = OperationInstance(op_id=2, iteration=4)
        assert inst.start_time(base_start=3, period=10) == 33

    def test_deadline_formula(self):
        inst = OperationInstance(op_id=2, iteration=1)
        assert inst.deadline(base_deadline=7, period=10) == 7

    def test_iterations_one_based(self):
        with pytest.raises(GraphValidationError):
            OperationInstance(op_id=0, iteration=0)
        with pytest.raises(GraphValidationError):
            IntermediateInstance(producer=0, consumer=1, iteration=0)

    def test_str_forms(self):
        assert str(OperationInstance(3, 2)) == "V3^2"
        assert str(IntermediateInstance(1, 2, 5)) == "I(1,2)^5"


class TestUnroll:
    def test_instance_count(self, diamond_graph):
        instances, _ = unroll(diamond_graph, iterations=3)
        assert len(instances) == 4 * 3

    def test_zero_retiming_keeps_intra_iteration_edges(self, diamond_graph):
        _, edges = unroll(diamond_graph, iterations=2)
        for producer, consumer in edges:
            assert producer.iteration == consumer.iteration
        assert len(edges) == 4 * 2

    def test_retimed_edges_cross_iterations(self, diamond_graph):
        deltas = {(0, 1): 1, (0, 2): 2, (1, 3): 0, (2, 3): 0}
        _, edges = unroll(diamond_graph, 4, relative_retiming=deltas)
        for producer, consumer in edges:
            key = (producer.op_id, consumer.op_id)
            assert consumer.iteration - producer.iteration == deltas[key]

    def test_prologue_dependencies_fall_off(self, diamond_graph):
        # delta = 2 means consumers in iterations 1-2 are fed by the
        # prologue: those edges must not appear in the unrolled window.
        deltas = {(0, 1): 0, (0, 2): 2, (1, 3): 0, (2, 3): 0}
        _, edges = unroll(diamond_graph, 3, relative_retiming=deltas)
        crossing = [
            (p, c) for p, c in edges if (p.op_id, c.op_id) == (0, 2)
        ]
        assert len(crossing) == 1  # only iteration 3's consumer is in-window
        assert crossing[0][1].iteration == 3

    def test_unknown_edge_in_retiming_rejected(self, diamond_graph):
        with pytest.raises(GraphValidationError):
            unroll(diamond_graph, 2, relative_retiming={(7, 8): 1})

    def test_negative_retiming_rejected(self, diamond_graph):
        with pytest.raises(GraphValidationError):
            unroll(diamond_graph, 2, relative_retiming={(0, 1): -1})

    def test_zero_iterations_rejected(self, diamond_graph):
        with pytest.raises(GraphValidationError):
            unroll(diamond_graph, 0)
