"""The kernel stage pays once per graph, packing order and width.

The compacted kernel depends on the graph, the group width and the
packing order alone; its ``R_floor`` and edge timings add only the edge
table's unit constants. All three are kept with the graph's index
(:meth:`CompileContext.shared_kernel`), so every compile of a graph, or
of a :func:`load_workload` copy of it, reuses what an earlier compile
built, and produces the plan a compile on a graph with its own facts
produces.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.cnn import workloads
from repro.cnn.workloads import load_workload
from repro.compiler import CompileContext, kernel_stage_floor, passes, pipeline
from repro.core import scheduler
from repro.core.paraconv import ParaConv
from repro.core.retiming import edge_table, price_edges
from repro.core.scheduler import candidate_group_widths
from repro.pim.config import PimConfig
from repro.runtime.plan_cache import plan_to_dict


class _Spy:
    """Counts the calls of one module attribute, with their arguments."""

    def __init__(self, monkeypatch, owner, name):
        self.calls = []
        real = getattr(owner, name)

        def spied(*args, **kwargs):
            self.calls.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, spied)

    def widths(self):
        """The ``num_pes`` argument of each compact_kernel_schedule call."""
        return [args[1] for args, _ in self.calls]


@pytest.fixture
def fresh(monkeypatch):
    # Fresh templates: kernels other tests kept must not hide a build here.
    monkeypatch.setattr(workloads, "_TEMPLATES", {})


@pytest.fixture
def kernels(monkeypatch, fresh):
    return _Spy(monkeypatch, scheduler, "compact_kernel_schedule")


def _plan_hash(plan) -> str:
    payload = json.dumps(plan_to_dict(plan), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _kernel_stages(plan):
    """The widths whose kernel stage ``plan``'s compile ran."""
    stats = plan.compile_stats
    return stats.widths_explored + stats.widths_cut_after_kernel


class TestKernelsAreShared:
    def test_a_wider_machine_builds_only_the_new_widths(self, kernels):
        small = ParaConv(PimConfig(num_pes=16, iterations=100)).run(
            load_workload("protein")
        )
        assert sorted(kernels.widths()) == sorted(_kernel_stages(small))
        assert set(_kernel_stages(small)) == {16, 8, 5, 4, 3, 2}
        del kernels.calls[:]

        config = PimConfig(num_pes=64, iterations=100)
        large = ParaConv(config).run(load_workload("protein"))
        built = kernels.widths()
        assert not set(built) & {16, 8, 5, 4, 3, 2}
        stats = large.compile_stats
        assert sorted(built + stats.widths_kernel_reused) == sorted(
            _kernel_stages(large)
        )
        assert set(stats.widths_kernel_reused) == (
            set(_kernel_stages(large)) & {16, 8, 5, 4, 3, 2}
        )
        # A reuse still runs the pass.
        assert stats.pass_runs["compact-kernel"] == len(_kernel_stages(large))
        own = ParaConv(config).run(load_workload("protein").copy())
        assert own.compile_stats.widths_kernel_reused == []
        assert plan_to_dict(large) == plan_to_dict(own)

    def test_a_finer_cache_unit_reuses_kernels_not_floors_or_timings(
        self, monkeypatch, kernels
    ):
        floors = _Spy(monkeypatch, pipeline, "_cache_retiming")
        timings = _Spy(monkeypatch, passes, "analyze_edges")
        default = PimConfig(num_pes=16, iterations=1000)
        ParaConv(default).run(load_workload("flower"))
        first = (len(kernels.calls), len(floors.calls), len(timings.calls))
        assert first[0] > 0

        finer = PimConfig(
            num_pes=16, iterations=1000, cache_bytes_per_unit=512
        )
        plan = ParaConv(finer).run(load_workload("flower"))
        stats = plan.compile_stats
        assert stats.widths_kernel_reused
        assert len(kernels.calls) - first[0] == len(_kernel_stages(plan)) - len(
            stats.widths_kernel_reused
        )
        # Its own floors and timings: one per floor run and ranked width.
        assert len(floors.calls) - first[1] == stats.floor_runs
        assert len(timings.calls) - first[2] == stats.num_explored
        own = ParaConv(finer).run(load_workload("flower").copy())
        assert plan_to_dict(plan) == plan_to_dict(own)

        # A second compile at the finer unit reuses all three.
        counts = (len(kernels.calls), len(floors.calls), len(timings.calls))
        again = ParaConv(finer).run(load_workload("flower"))
        assert (
            len(kernels.calls), len(floors.calls), len(timings.calls)
        ) == counts
        assert sorted(again.compile_stats.widths_kernel_reused) == sorted(
            _kernel_stages(again)
        )
        assert plan_to_dict(again) == plan_to_dict(own)

    def test_lpt_and_topological_never_share_a_kernel(self, kernels):
        config = PimConfig(num_pes=16, iterations=100)
        graph = load_workload("speech-1")
        lpt = ParaConv(config, kernel_order="lpt").run(graph)
        topological = ParaConv(config).run(graph)
        assert lpt.compile_stats.widths_kernel_reused == []
        assert topological.compile_stats.widths_kernel_reused == []
        orders = [kwargs["order"] for _, kwargs in kernels.calls]
        assert orders.count("lpt") == len(_kernel_stages(lpt))
        assert orders.count("topological") == len(_kernel_stages(topological))
        for width in set(_kernel_stages(lpt)) & set(_kernel_stages(topological)):
            kept = [
                graph.derived(("kernel", order, width), pytest.fail).kernel
                for order in ("lpt", "topological")
            ]
            assert kept[0] is not kept[1]
        own = ParaConv(config, kernel_order="lpt").run(graph.copy())
        assert plan_to_dict(lpt) == plan_to_dict(own)

    def test_a_mutation_drops_the_kept_kernels(self, kernels):
        config = PimConfig(num_pes=16, iterations=100)
        graph = load_workload("cat")
        ParaConv(config).run(graph)
        order = graph.topological_order()
        graph.connect(*next(
            (order[i], order[j])
            for i in range(len(order))
            for j in range(i + 1, len(order))
            if not graph.has_edge(order[i], order[j])
        ))
        plan = ParaConv(config).run(graph)
        assert plan.compile_stats.widths_kernel_reused == []


class TestPlansOwnTheirColumns:
    def test_editing_a_plan_kernel_leaves_the_next_compile(self, fresh):
        config = PimConfig(num_pes=16, iterations=1000)
        first = ParaConv(config).run(load_workload("protein"))
        digest = _plan_hash(first)
        kernel = first.schedule.kernel
        kernel.start[0] += 7
        kernel.finish[0] += 7
        kernel.pe[0] = 99
        second = ParaConv(config).run(load_workload("protein"))
        assert second.compile_stats.widths_kernel_reused
        assert second.schedule.kernel is not kernel
        assert _plan_hash(second) == digest
        assert _plan_hash(first) != digest

    def test_the_emitted_kernel_is_a_copy_of_the_kept_one(self, fresh):
        config = PimConfig(num_pes=16, iterations=1000)
        graph = load_workload("flower")
        plan = ParaConv(config).run(graph)
        kept = graph.derived(
            ("kernel", "topological", plan.group_width), pytest.fail
        ).kernel
        emitted = plan.schedule.kernel
        assert emitted == kept
        for column in ("pe", "start", "finish"):
            assert getattr(emitted, column) is not getattr(kept, column)


class TestHandPutTables:
    def test_a_hand_put_table_is_computed_fresh(self, monkeypatch, fresh):
        floors = _Spy(monkeypatch, pipeline, "_cache_retiming")
        graph = load_workload("flower")
        config = PimConfig(num_pes=16, iterations=1000)
        width = candidate_group_widths(config.num_pes)[0]
        base = CompileContext(graph=graph, config=config)

        own = base.fork_for_width(width)
        passes.CompactKernelPass().run(own)
        expected = kernel_stage_floor(own, config.iterations)
        assert kernel_stage_floor(own, config.iterations) == expected
        assert len(floors.calls) == 1

        by_hand = CompileContext(graph=graph, config=config, width=width)
        by_hand.shared["edge_table"] = edge_table(
            graph, price_edges(graph, config)
        )
        passes.CompactKernelPass().run(by_hand)
        assert by_hand.kernel_reused
        for _ in range(2):
            assert kernel_stage_floor(by_hand, config.iterations) == expected
        assert len(floors.calls) == 3
        passes.AnalyzeEdgesPass().run(by_hand)
        passes.AnalyzeEdgesPass().run(own)
        assert by_hand.get("timings") is not own.get("timings")
        assert by_hand.get("timings") == own.get("timings")


class TestObservability:
    def test_explain_shows_reuse_and_the_floor(self, fresh):
        config = PimConfig(num_pes=64, iterations=1000)
        ParaConv(config).run(load_workload("protein"))
        plan = ParaConv(config).run(load_workload("protein"))
        stats = plan.compile_stats
        stages = len(_kernel_stages(plan))
        assert stats.as_dict()["widths_kernel_reused"] == (
            stats.widths_kernel_reused
        )
        assert len(stats.widths_kernel_reused) == stages
        # Every kernel stage after the first runs the floor, unless its
        # period bound already lost.
        assert stats.floor_runs == stages - 1 - len(stats.widths_cut_by_period)
        lines = stats.explain().splitlines()
        reused = ", ".join(map(str, stats.widths_kernel_reused))
        assert (
            f"kernels reused      : {reused} ({stages} of {stages} kernel "
            "stages)"
        ) in lines
        assert any(
            line.startswith(f"kernel-stage floor  : {stats.floor_runs} runs, ")
            for line in lines
        )
