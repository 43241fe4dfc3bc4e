"""Tests for the workload registry."""

import pytest

from repro.cnn.workloads import (
    PAPER_BENCHMARKS,
    WORKLOADS,
    UnknownWorkloadError,
    load_workload,
)
from repro.graph.generators import BENCHMARK_SIZES
from repro.graph.taskgraph import GraphValidationError


class TestRegistry:
    def test_all_paper_benchmarks_registered(self):
        for name in BENCHMARK_SIZES:
            assert name in WORKLOADS
        assert PAPER_BENCHMARKS == list(BENCHMARK_SIZES)

    def test_googlenet_workloads_registered(self):
        assert "googlenet" in WORKLOADS
        assert "googlenet-small" in WORKLOADS

    def test_load_paper_benchmark(self):
        graph = load_workload("cat")
        assert (graph.num_vertices, graph.num_edges) == (9, 21)

    def test_load_googlenet_small(self):
        graph = load_workload("googlenet-small")
        graph.validate()
        assert graph.num_vertices > 20

    def test_load_is_deterministic(self):
        a = load_workload("car")
        b = load_workload("car")
        assert [e.key for e in a.edges()] == [e.key for e in b.edges()]

    def test_unknown_workload_rejected(self):
        with pytest.raises(GraphValidationError, match="unknown workload"):
            load_workload("imagenet-22k")


def _unconnected_forward_pair(graph):
    """The first two ops, in topological order, with no edge between them
    (a new edge there keeps the graph acyclic)."""
    order = graph.topological_order()
    return next(
        (a, b)
        for i, a in enumerate(order)
        for b in order[i + 1:]
        if not graph.has_edge(a, b)
    )


class TestTemplates:
    """Each entry is built once per process; every load is a fresh copy."""

    @pytest.mark.parametrize("name", sorted(WORKLOADS))
    def test_load_matches_a_direct_build(self, name):
        loaded, built = load_workload(name), WORKLOADS[name]()
        assert loaded.fingerprint() == built.fingerprint()
        assert loaded.index() == built.index()
        assert loaded.operations() == built.operations()
        assert loaded.edges() == built.edges()
        assert (loaded.name, loaded.period_hint) == (built.name, built.period_hint)

    def test_each_load_is_a_new_graph(self):
        assert load_workload("flower") is not load_workload("flower")

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda graph: graph.add_op(10_000, execution_time=3),
            lambda graph: graph.connect(*_unconnected_forward_pair(graph)),
            lambda graph: setattr(graph, "period_hint", 50),
        ],
        ids=["add_op", "add_edge", "period_hint"],
    )
    def test_mutating_a_load_leaves_the_next_load_unchanged(self, mutate):
        built = WORKLOADS["flower"]()
        mutated = load_workload("flower")
        mutate(mutated)
        assert mutated.fingerprint() != built.fingerprint()
        fresh = load_workload("flower")
        assert fresh.fingerprint() == built.fingerprint()
        assert fresh.index() == built.index()
        assert fresh.operations() == built.operations()
        assert (fresh.edges(), fresh.period_hint) == (built.edges(), built.period_hint)

    def test_a_builder_runs_once_across_loads(self, monkeypatch):
        builds = []

        def counted():
            builds.append(1)
            return WORKLOADS["cat"]()

        monkeypatch.setitem(WORKLOADS, "counted", counted)
        graphs = [load_workload("counted") for _ in range(3)]
        assert len(builds) == 1
        assert len({id(graph) for graph in graphs}) == 3
        monkeypatch.undo()
        with pytest.raises(UnknownWorkloadError):
            load_workload("counted")
