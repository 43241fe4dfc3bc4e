"""Graph facts are built once per graph, not once per compile.

ASAP levels, the packing orders, work sums and the priced edge table
depend on the graph's content (and, for prices, on a few machine
constants) alone. They are kept with the graph's index
(:meth:`TaskGraph.derived`), so every compile of a graph, and of every
:func:`load_workload` copy of it, shares them; a mutation drops them with
the index.
"""

from __future__ import annotations

import pytest

from repro.cnn import workloads
from repro.cnn.workloads import load_workload
from repro.core import retiming, scheduler
from repro.core.paraconv import ParaConv
from repro.core.retiming import graph_edge_table, graph_prices, price_edges
from repro.graph import analysis
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import plan_to_dict


class _Builds:
    """Counts the calls of the three graph-fact builders."""

    def __init__(self, monkeypatch):
        self.calls = {"asap_levels": 0, "packing_order": 0, "price_edges": 0}
        for owner, name in (
            (analysis, "asap_levels"),
            (scheduler, "packing_order"),
            (retiming, "price_edges"),
        ):
            monkeypatch.setattr(owner, name, self._counted(name, getattr(owner, name)))

    def _counted(self, name, real):
        def counted(*args, **kwargs):
            self.calls[name] += 1
            return real(*args, **kwargs)

        return counted


@pytest.fixture
def builds(monkeypatch):
    # Fresh templates: facts other tests built must not hide a build here.
    monkeypatch.setattr(workloads, "_TEMPLATES", {})
    return _Builds(monkeypatch)


def _unconnected_forward_pair(graph: TaskGraph):
    order = graph.topological_order()
    return next(
        (order[i], order[j])
        for i in range(len(order))
        for j in range(i + 1, len(order))
        if not graph.has_edge(order[i], order[j])
    )


class TestBuiltOncePerGraph:
    def test_two_loads_at_two_sizes_build_each_fact_once(self, builds):
        first, second = load_workload("protein"), load_workload("protein")
        small = ParaConv(PimConfig(num_pes=16, iterations=1000)).run(first)
        large = ParaConv(PimConfig(num_pes=64, iterations=1000)).run(second)
        assert builds.calls == {
            "asap_levels": 1, "packing_order": 1, "price_edges": 1
        }
        assert small.compile_stats.pass_runs["validate-graph"] == 1
        assert large.compile_stats.pass_runs["validate-graph"] == 1

    def test_shared_facts_give_the_plans_of_fresh_builds(self, builds):
        config = PimConfig(num_pes=64, iterations=1000)
        warm = [ParaConv(config).run(load_workload("flower")) for _ in range(2)]
        cold = ParaConv(config).run(workloads.WORKLOADS["flower"]())
        assert plan_to_dict(warm[0]) == plan_to_dict(warm[1])
        assert plan_to_dict(warm[1]) == plan_to_dict(cold)

    def test_another_cache_unit_gets_its_own_table(self, builds):
        graph = load_workload("flower")
        default = PimConfig(num_pes=16)
        finer = PimConfig(num_pes=16, cache_bytes_per_unit=1024)
        ParaConv(default).run(graph)
        ParaConv(finer).run(load_workload("flower"))
        assert builds.calls["price_edges"] == 2
        assert builds.calls["asap_levels"] == 1
        coarse_table = graph_edge_table(graph, default)
        fine_table = graph_edge_table(graph, finer)
        assert coarse_table is not fine_table
        assert fine_table == retiming.edge_table(
            graph, price_edges(graph, finer)
        )
        assert max(row[2] for row in fine_table.rows) > 0
        assert coarse_table.max_cache_units == 0

    def test_vault_count_keys_the_prices_not_the_table(self, builds):
        graph = load_workload("flower")
        config = PimConfig(num_pes=16)
        degraded = config.degraded(range(config.num_pes), [0, 1])
        assert graph_prices(graph, config) is graph_prices(graph, config)
        assert graph_prices(graph, degraded) != graph_prices(graph, config)
        assert {p.vault for p in graph_prices(graph, degraded)} <= {0, 1}
        assert builds.calls["price_edges"] == 2
        table = graph_edge_table(graph, config)
        assert graph_edge_table(graph, degraded) is table
        assert builds.calls["price_edges"] == 3


class TestMutationDropsTheFacts:
    def test_add_edge_rebuilds_and_leaves_the_template(self, builds):
        config = PimConfig(num_pes=16)
        loaded = load_workload("flower")
        ParaConv(config).run(loaded)
        table = graph_edge_table(loaded, config)
        assert builds.calls["asap_levels"] == 1

        mutated = load_workload("flower")
        mutated.connect(*_unconnected_forward_pair(mutated))
        ParaConv(config).run(mutated)
        assert builds.calls == {
            "asap_levels": 2, "packing_order": 2, "price_edges": 2
        }
        assert len(graph_edge_table(mutated, config).rows) == len(table.rows) + 1

        fresh = load_workload("flower")
        assert graph_edge_table(fresh, config) is table
        assert fresh.index() is loaded.index()
        assert fresh.fingerprint() == loaded.fingerprint()
        assert builds.calls["price_edges"] == 2

    def test_add_op_drops_the_facts(self):
        graph = load_workload("cat")
        levels = graph.derived("asap_levels", lambda: analysis.asap_levels(graph))
        graph.add_op(10_000, execution_time=3)
        rebuilt = graph.derived("asap_levels", lambda: analysis.asap_levels(graph))
        assert rebuilt is not levels
        assert rebuilt[10_000] == 0
        assert 10_000 not in load_workload("cat").derived(
            "asap_levels", lambda: pytest.fail("the template lost its facts")
        )


class TestRowOrder:
    def test_reversed_edge_copy_prices_alike(self):
        graph = load_workload("speech-1")
        reversed_graph = TaskGraph(name="reversed")
        for op in graph.operations():
            reversed_graph.add_operation(op)
        for edge in reversed(graph.edges()):
            reversed_graph.add_edge(edge)
        config = PimConfig(num_pes=16)
        assert price_edges(reversed_graph, config) == price_edges(graph, config)
        assert [p.key for p in price_edges(graph, config)] == list(
            graph.index().edge_keys
        )
        assert graph_edge_table(reversed_graph, config) == graph_edge_table(
            graph, config
        )

    def test_prices_out_of_row_order_are_rejected(self):
        graph = load_workload("cat")
        prices = price_edges(graph, PimConfig())
        with pytest.raises(retiming.RetimingError, match="row order"):
            retiming.edge_table(graph, prices[::-1])


class TestCopy:
    def test_copy_owns_its_maps(self):
        graph = load_workload("cat")
        clone = graph.copy(name="clone")
        assert clone.edges() == graph.edges()
        assert clone.operations() == graph.operations()
        assert clone.fingerprint() == graph.fingerprint()
        assert clone.index() == graph.index()
        clone.connect(*_unconnected_forward_pair(clone))
        clone.add_op(10_000)
        assert clone.num_edges == graph.num_edges + 1
        assert 10_000 not in graph
        assert all(
            graph.successors(op_id) == load_workload("cat").successors(op_id)
            for op_id in graph.topological_order()
        )
