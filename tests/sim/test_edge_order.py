"""A simulation depends on the graph's content, not its construction order.

``TaskGraph.fingerprint()`` ignores the order ops and edges were added
in, and the runtime keys plans and batch traces by it, so two graphs with
one fingerprint must simulate identically.
"""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import PlanCache
from repro.runtime.session import InferenceSession
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

from tests.builders import direct_batch
from tests.runtime.test_batch_reuse import aggregates


def rebuilt(graph: TaskGraph, order) -> TaskGraph:
    """``graph`` with its ops and edges added in the order ``order`` gives."""
    clone = TaskGraph(name=graph.name, period_hint=graph.period_hint)
    for op in order(graph.operations()):
        clone.add_operation(op)
    for edge in order(graph.edges()):
        clone.add_edge(edge)
    assert clone.fingerprint() == graph.fingerprint()
    return clone


def signature(plan):
    return ScheduleExecutor(plan.config).execute(
        plan, iterations=5, sink=NullSink()
    ).aggregate_signature()


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shuffled_copies_simulate_identically(name, seed):
    graph = load_workload(name)
    rng = random.Random(f"{name}/{seed}")
    shuffled = rebuilt(graph, lambda items: rng.sample(items, len(items)))
    plan = ParaConv(PimConfig(num_pes=16), validate=False).run(graph)
    # The plan a fingerprint-keyed cache would serve to either graph.
    assert signature(dataclasses.replace(plan, graph=shuffled)) == signature(plan)


def test_shared_cache_serves_each_session_its_own_batch():
    """Two sessions on one cache, one holding the reversed graph: each
    batch equals the direct simulation of that session's own graph."""
    config = PimConfig(num_pes=16, iterations=100)
    forward = load_workload("cat")
    backward = rebuilt(forward, lambda items: items[::-1])
    mode = SimMode.FULL_UNROLL
    cache = PlanCache()
    batches = [
        InferenceSession(graph, config, cache=cache, sim_mode=mode).run(20)
        for graph in (forward, backward)
    ]
    assert (cache.stats.misses, cache.stats.hits) == (1, 1)
    for batch, graph in zip(batches, (forward, backward)):
        assert aggregates(batch) == aggregates(
            direct_batch(graph, config, 20, sim_mode=mode)
        )
