"""Scalability micro-benchmarks: runtime of the pipeline's own algorithms.

The paper's evaluation includes synthetic graphs with over 500
convolutions; these benchmarks time the dynamic program, the retiming
propagation and the full pipeline as graph size grows, checking the
advertised complexity (DP is O(n * S); propagation is O(V + E)).
"""

import pytest

from repro.core.allocation import AllocationProblem, dp_allocate
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges, solve_retiming
from repro.core.scheduler import compact_kernel_schedule
from repro.graph.generators import SyntheticGraphGenerator, synthetic_benchmark


@pytest.fixture(scope="module")
def big_graph():
    """A synthetic graph beyond the paper's largest (546 vertices)."""
    return SyntheticGraphGenerator().generate(800, 2100, seed=42, name="big")


def test_pipeline_on_protein(benchmark, quick_machine):
    graph = synthetic_benchmark("protein")
    result = benchmark(lambda: ParaConv(quick_machine).run(graph))
    assert result.total_time() > 0


def test_pipeline_on_800_vertices(benchmark, quick_machine, big_graph):
    result = benchmark.pedantic(
        lambda: ParaConv(quick_machine).run(big_graph), rounds=2, iterations=1
    )
    assert result.max_retiming >= 0


def test_dp_allocation_scaling(benchmark, quick_machine, big_graph):
    config = quick_machine.with_pes(64)
    kernel = compact_kernel_schedule(big_graph, 64)
    timings = analyze_edges(big_graph, kernel, config)
    problem = AllocationProblem.from_timings(timings, config.total_cache_slots)
    result = benchmark(lambda: dp_allocate(problem))
    assert result.slots_used <= config.total_cache_slots


def test_retiming_propagation_scaling(benchmark, quick_machine, big_graph):
    config = quick_machine.with_pes(64)
    kernel = compact_kernel_schedule(big_graph, 64)
    timings = analyze_edges(big_graph, kernel, config)
    deltas = list(timings.delta_edram)
    solution = benchmark(lambda: solve_retiming(big_graph, deltas))
    assert solution.max_retiming >= 0


def test_kernel_compaction_scaling(benchmark, big_graph):
    kernel = benchmark(lambda: compact_kernel_schedule(big_graph, 64))
    assert kernel.period > 0
