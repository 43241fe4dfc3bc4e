"""Every per-width column means the same on every graph with one
fingerprint.

The compile passes lay a plan out in the graph's content-only index space
(``TaskGraph.index``): vertices in Kahn order with min-id tie-breaks, edge
rows sorted by (producer vertex, consumer vertex). A copy of a workload
built with its ops and edges inserted in another order therefore compiles
to the same kernel, edge-timing, retiming and schedule columns, and a plan
compiled on one graph hydrates onto the other and validates there.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv
from repro.core.schedule import validate_kernel, validate_periodic_schedule
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import plan_from_dict, plan_to_dict
from tests.sim.test_edge_order import rebuilt


def columns(graph, pes):
    """The winning width's kernel, edge-timing, retiming and schedule
    columns of ``graph`` on ``pes`` PEs."""
    pipeline = ParaConv(PimConfig(num_pes=pes, iterations=1000))
    plan = pipeline.run(graph)
    ctx = pipeline.analysis_context(graph, plan.group_width)
    pipeline.run_from_context(ctx)
    kernel = ctx.get("kernel")
    timings = ctx.get("timings")
    retiming = ctx.get("retiming")
    schedule = ctx.get("schedule")
    return plan, {
        "kernel": (kernel.period, kernel.op_ids, kernel.pe, kernel.start,
                   kernel.finish),
        "timings": (timings.edge_keys, timings.transfer_cache,
                    timings.transfer_edram, timings.delta_cache,
                    timings.delta_edram, timings.slots, timings.deadline),
        "retiming": (retiming.vertex_r, retiming.edge_r, list(retiming.deltas)),
        "schedule": schedule_columns(plan.schedule),
        "context schedule": schedule_columns(schedule),
    }


def schedule_columns(schedule):
    return (schedule.vertex_r, schedule.edge_r, schedule.edge_placement,
            schedule.edge_transfer)


@functools.lru_cache(maxsize=None)
def original(name, pes):
    graph = load_workload(name)
    return (graph, *columns(graph, pes))


@pytest.mark.parametrize("pes", [16, 64])
@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_shuffled_copy_compiles_to_the_same_columns(name, seed, pes):
    graph, plan, expected = original(name, pes)
    rng = random.Random(f"{name}/{seed}")
    shuffled = rebuilt(graph, lambda items: rng.sample(items, len(items)))
    assert shuffled.index() == graph.index()
    shuffled_plan, got = columns(shuffled, pes)
    assert got == expected
    assert plan_to_dict(shuffled_plan) == plan_to_dict(plan)
    # The original's plan, hydrated onto the shuffled copy.
    hydrated = plan_from_dict(plan_to_dict(plan), shuffled)
    assert hydrated.graph is shuffled
    validate_kernel(shuffled, hydrated.schedule.kernel, hydrated.group_width)
    validate_periodic_schedule(hydrated.schedule)
    assert schedule_columns(hydrated.schedule) == expected["schedule"]
    assert hydrated.schedule.kernel == plan.schedule.kernel
