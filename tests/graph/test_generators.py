"""Tests for the synthetic graph generators, including hypothesis checks."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.graph.generators import (
    BENCHMARK_SIZES,
    GeneratorParams,
    SyntheticGraphGenerator,
    synthetic_benchmark,
)
from repro.graph.taskgraph import GraphValidationError


class TestGeneratorParams:
    def test_defaults_valid(self):
        GeneratorParams()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"locality": 0.0},
            {"locality": 1.5},
            {"min_exec": 0},
            {"max_exec": 0},
            {"min_size": 0},
            {"max_size": 100, "min_size": 200},
            {"pool_fraction": 1.0},
            {"pool_fraction": -0.1},
        ],
    )
    def test_invalid_params_rejected(self, kwargs):
        with pytest.raises(GraphValidationError):
            GeneratorParams(**kwargs)


class TestExactCounts:
    @pytest.mark.parametrize("name,size", sorted(BENCHMARK_SIZES.items()))
    def test_published_sizes_exact(self, name, size):
        graph = synthetic_benchmark(name)
        assert (graph.num_vertices, graph.num_edges) == size

    def test_all_benchmarks_ordered(self):
        graphs = [synthetic_benchmark(name) for name in BENCHMARK_SIZES]
        assert len(graphs) == 12
        sizes = [g.num_vertices for g in graphs]
        assert sizes == sorted(sizes)

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(GraphValidationError, match="unknown benchmark"):
            synthetic_benchmark("no-such-benchmark")


class TestDeterminism:
    def test_same_seed_same_graph(self):
        a = synthetic_benchmark("flower")
        b = synthetic_benchmark("flower")
        assert [op.execution_time for op in a.operations()] == [
            op.execution_time for op in b.operations()
        ]
        assert [e.key for e in a.edges()] == [e.key for e in b.edges()]
        assert [e.size_bytes for e in a.edges()] == [
            e.size_bytes for e in b.edges()
        ]

    def test_different_seed_different_graph(self):
        a = synthetic_benchmark("flower", seed=1)
        b = synthetic_benchmark("flower", seed=2)
        assert [e.key for e in a.edges()] != [e.key for e in b.edges()]


class TestStructure:
    def test_acyclic_and_connected_backbone(self):
        graph = SyntheticGraphGenerator().generate(40, 100, seed=5)
        graph.validate()
        # every non-source vertex has at least one predecessor
        for op in graph.operations():
            if op.op_id != 0:
                assert graph.in_degree(op.op_id) >= 1 or op.op_id in graph.sources()
        assert len(graph.sources()) >= 1

    def test_execution_times_within_params(self):
        params = GeneratorParams(min_exec=2, max_exec=5)
        graph = SyntheticGraphGenerator(params).generate(30, 70, seed=1)
        for op in graph.operations():
            assert 2 <= op.execution_time <= 5

    def test_sizes_within_params(self):
        params = GeneratorParams(min_size=100, max_size=200)
        graph = SyntheticGraphGenerator(params).generate(30, 70, seed=1)
        for edge in graph.edges():
            assert 100 <= edge.size_bytes <= 200

    def test_too_few_edges_rejected(self):
        with pytest.raises(GraphValidationError, match="connected"):
            SyntheticGraphGenerator().generate(10, 5)

    def test_too_many_edges_rejected(self):
        with pytest.raises(GraphValidationError, match="exceed"):
            SyntheticGraphGenerator().generate(10, 1000)

    def test_too_few_vertices_rejected(self):
        with pytest.raises(GraphValidationError):
            SyntheticGraphGenerator().generate(1, 0)


class TestPropertyBased:
    @given(
        n=st.integers(min_value=2, max_value=60),
        extra=st.integers(min_value=0, max_value=40),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_generated_graphs_are_valid_dags(self, n, extra, seed):
        generator = SyntheticGraphGenerator()
        capacity = generator._capacity(n, generator._window(n))
        edges = min(n - 1 + extra, capacity)
        graph = generator.generate(n, edges, seed=seed)
        graph.validate()  # raises on any structural problem
        assert graph.num_vertices == n
        assert graph.num_edges == edges
        order = graph.topological_order()
        assert len(order) == n
