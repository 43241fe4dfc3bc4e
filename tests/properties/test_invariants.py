"""Cross-cutting property-based invariants over random instances.

These are the strongest guarantees in the suite: for arbitrary generated
workloads and machines, the Para-CONV pipeline must produce semantically
valid, capacity-respecting, Theorem-3.1-conformant schedules, and the DP
must dominate the simpler allocators.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.core.allocation import (
    AllocationProblem,
    dp_allocate,
    greedy_allocate,
    random_allocate,
)
from repro.core.paraconv import ParaConv
from repro.core.retiming import analyze_edges
from repro.core.schedule import validate_periodic_schedule
from repro.core.scheduler import compact_kernel_schedule, load_balance_bound
from repro.graph.generators import GeneratorParams, SyntheticGraphGenerator
from repro.pim.config import PimConfig

machine_strategy = st.builds(
    PimConfig,
    num_pes=st.sampled_from([2, 4, 8, 16, 32]),
    cache_bytes_per_pe=st.sampled_from([0, 512, 2048, 8192]),
    edram_latency_factor=st.integers(min_value=2, max_value=10),
    iterations=st.just(100),
)


def _build_graph(n, extra, seed):
    generator = SyntheticGraphGenerator(GeneratorParams())
    capacity = generator._capacity(n, generator._window(n))
    edges = min(n - 1 + extra, capacity)
    return generator.generate(n, edges, seed=seed)


def graph_strategy():
    return st.builds(
        _build_graph,
        n=st.integers(min_value=4, max_value=60),
        extra=st.integers(min_value=0, max_value=60),
        seed=st.integers(min_value=0, max_value=10_000),
    )


class TestPipelineInvariants:
    @given(graph=graph_strategy(), config=machine_strategy)
    @settings(max_examples=40, deadline=None)
    def test_schedule_semantics_always_hold(self, graph, config):
        result = ParaConv(config, validate=False).run(graph)
        # run the full validator explicitly (pipeline had it disabled)
        validate_periodic_schedule(result.schedule)

    @given(graph=graph_strategy(), config=machine_strategy)
    @settings(max_examples=40, deadline=None)
    def test_theorem_31_per_edge(self, graph, config):
        result = ParaConv(config, validate=False).run(graph)
        kernel = result.schedule.kernel
        period = result.period
        for edge in graph.edges():
            transfer = result.schedule.transfer_times[edge.key]
            assert transfer <= period
            gap = (
                kernel.placement(edge.producer).finish
                + transfer
                - kernel.placement(edge.consumer).start
            )
            required = max(0, math.ceil(gap / period))
            assert required <= 2

    @given(graph=graph_strategy(), config=machine_strategy)
    @settings(max_examples=40, deadline=None)
    def test_capacity_and_bounds(self, graph, config):
        result = ParaConv(config, validate=False).run(graph)
        per_group = config.total_cache_slots // result.num_groups
        assert result.allocation.slots_used <= per_group
        assert result.period >= load_balance_bound(graph, result.group_width)
        assert result.group_width * result.num_groups <= config.num_pes
        assert result.prologue_time == result.max_retiming * result.period

    @given(graph=graph_strategy())
    @settings(max_examples=30, deadline=None)
    def test_dp_dominates_heuristics(self, graph):
        config = PimConfig(num_pes=8, cache_bytes_per_pe=1024, iterations=100)
        kernel = compact_kernel_schedule(graph, 8)
        timings = analyze_edges(graph, kernel, config)
        problem = AllocationProblem.from_timings(
            timings, config.total_cache_slots
        )
        dp = dp_allocate(problem).total_delta_r
        assert dp >= greedy_allocate(problem).total_delta_r
        assert dp >= random_allocate(problem, seed=5).total_delta_r

    @given(
        graph=graph_strategy(),
        pes=st.sampled_from([4, 8, 16]),
    )
    @settings(max_examples=25, deadline=None)
    def test_more_pes_never_slower(self, graph, pes):
        slow = ParaConv(PimConfig(num_pes=pes, iterations=100), validate=False)
        fast = ParaConv(
            PimConfig(num_pes=pes * 2, iterations=100), validate=False
        )
        assert fast.run(graph).total_time() <= slow.run(graph).total_time() * 1.2


class TestBaselineInvariants:
    @given(graph=graph_strategy(), config=machine_strategy)
    @settings(max_examples=25, deadline=None)
    def test_sparta_never_faster_than_paraconv(self, graph, config):
        from repro.core.baseline import SpartaScheduler

        para = ParaConv(config, validate=False).run(graph)
        sparta = SpartaScheduler(config).run(graph)
        # SPARTA pays demand-fetch stalls that retiming removes; on any
        # machine with a real eDRAM penalty its *steady state* cannot win.
        # The comparison excludes Para-CONV's one-off prologue R_max * p:
        # on tiny graphs with few iterations the prologue is not yet
        # amortized, and the paper's speedup claim is about the steady
        # state (the prologue cost vanishes as N grows).
        para_steady = para.total_time() - para.prologue_time
        assert para_steady <= sparta.total_time()
