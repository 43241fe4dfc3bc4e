"""The Para-CONV pipeline (paper Section 3), as a pass pipeline.

End-to-end flow, mirroring Section 3.3.3's construction:

1. pick the PE group width: when the array is wider than one iteration's
   useful parallelism, whole iterations are replicated across groups (the
   motivational example runs two iterations on two PE pairs);
2. build the *objective schedule* -- the compacted steady-state kernel on a
   group (known a-priori, load-balance bound);
3. analyze every intermediate result's required retiming under cache and
   eDRAM placement (Section 3.2), deriving ``ΔR(m)``;
4. send placement-indifferent results (``ΔR = 0``) to eDRAM;
5. run the dynamic program ``B[S, m]`` over the competing results and
   reconstruct the optimal cache allocation (capacity shared across the
   concurrently executing groups);
6. propagate the per-edge retiming requirements into the minimal legal
   vertex retiming, yielding ``R_max``, the prologue and the full periodic
   schedule.

Since PR 3 the stages are *named compiler passes* executed by
:class:`repro.compiler.PassManager` over an explicit
:class:`repro.compiler.CompileContext` — see :mod:`repro.compiler.passes`
for the stage table. :class:`ParaConv` is the front-end: it turns its
knobs into a :class:`repro.compiler.PipelineConfig`, hoists width-invariant
work (graph validation, ASAP levels, edge prices) out of the width search,
visits candidate widths best bound first, builds a plan only at widths
whose admissible lower bounds (before compiling, and again after the
kernel stage) can still beat the incumbent, and attaches a
:class:`repro.compiler.CompileStats` breakdown to every result (surfaced
by ``python -m repro … --explain`` and the serving runtime).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional, Sequence

from repro.compiler.context import CompileContext
from repro.compiler.manager import InvariantHook, PassManager
from repro.compiler.passes import ValidateGraphPass
from repro.compiler.pipeline import (
    CompileStats,
    PipelineConfig,
    kernel_stage_floor,
    transfer_critical_path,
    width_lower_bound,
)
from repro.core.allocation import (
    AllocationProblem,
    AllocationResult,
    allocator_from_spec,
    dp_allocate,
)
from repro.core.cases import RetimingCase, case_census
from repro.core.schedule import PeriodicSchedule, ScheduleError
from repro.core.scheduler import candidate_group_widths, load_balance_bound
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement

Allocator = Callable[[AllocationProblem], AllocationResult]


@dataclass
class ParaConvResult:
    """Everything Para-CONV produces for one (graph, machine) pair.

    ``group_width`` PEs execute one iteration's kernel; ``num_groups``
    such groups run interleaved iterations concurrently, sharing the
    aggregate on-chip cache equally. ``compile_stats`` (when present)
    records where the compile time went — per-pass wall seconds and the
    width search's explored/pruned candidates; it is observability
    metadata only and never serialized into the plan payload.
    """

    graph: TaskGraph
    config: PimConfig
    schedule: PeriodicSchedule
    allocation: AllocationResult
    case_histogram: Dict[RetimingCase, int]
    group_width: int
    num_groups: int
    compile_stats: Optional[CompileStats] = field(
        default=None, compare=False, repr=False
    )

    # ------------------------------------------------------------------
    # paper metrics
    # ------------------------------------------------------------------
    @property
    def period(self) -> int:
        """Steady-state execution time of each iteration (Figure 5)."""
        return self.schedule.period

    @property
    def max_retiming(self) -> int:
        """``R_max`` (Table 2)."""
        return self.schedule.max_retiming

    @property
    def prologue_time(self) -> int:
        """``R_max * p`` (Section 3.2)."""
        return self.schedule.prologue_time

    @property
    def num_cached(self) -> int:
        """IRs in on-chip cache per group (the DP's selection)."""
        return self.allocation.num_cached

    @property
    def num_cached_total(self) -> int:
        """IRs resident in cache across the whole array (Figure 6)."""
        return self.allocation.num_cached * self.num_groups

    def total_time(self, iterations: Optional[int] = None) -> int:
        """Prologue + N iterations spread over the groups (Table 1)."""
        n = self.config.iterations if iterations is None else iterations
        if n < 1:
            raise ScheduleError("iterations must be >= 1")
        return self.prologue_time + math.ceil(n / self.num_groups) * self.period

    def offchip_bytes_per_iteration(self) -> int:
        """Bytes fetched from eDRAM each iteration (the minimized penalty)."""
        return sum(
            edge.size_bytes
            for edge in self.graph.edges()
            if self.schedule.placements[edge.key] is Placement.EDRAM
        )

    def throughput(self, iterations: Optional[int] = None) -> float:
        """Iterations completed per time unit over the whole run."""
        n = self.config.iterations if iterations is None else iterations
        return n / self.total_time(n)

    def summary(self) -> str:
        """Human-readable one-paragraph report."""
        lines = [
            f"Para-CONV on {self.graph.name!r} ({self.graph.num_vertices} ops, "
            f"{self.graph.num_edges} intermediate results)",
            f"  machine        : {self.config.describe()}",
            f"  groups         : {self.num_groups} x {self.group_width} PEs",
            f"  period p       : {self.period} time units "
            f"(load-balance bound "
            f"{load_balance_bound(self.graph, self.group_width)})",
            f"  R_max          : {self.max_retiming} "
            f"(prologue {self.prologue_time} units)",
            f"  cached IRs     : {self.num_cached}/{self.graph.num_edges} "
            f"per group ({self.allocation.slots_used}/"
            f"{self.allocation.capacity_slots} slots)",
            f"  total time     : {self.total_time()} units for "
            f"{self.config.iterations} iterations",
            f"  off-chip/iter  : {self.offchip_bytes_per_iteration()} bytes",
        ]
        return "\n".join(lines)

    def explain(self) -> str:
        """Pass-pipeline and width-search breakdown (``--explain``)."""
        if self.compile_stats is None:
            return "(no compile stats recorded for this plan)"
        return self.compile_stats.explain()


class ParaConv:
    """Task-level data allocation framework for convolutional connections.

    A thin front-end over the :mod:`repro.compiler` pass pipeline: the
    constructor knobs become a :class:`~repro.compiler.PipelineConfig`, so
    allocator choice, kernel packing order and the liveness mode are
    pipeline configuration rather than branches in a monolithic ``run``.

    Args:
        config: machine description (PE count, cache capacity, eDRAM ratio).
        allocator: cache-allocation strategy; the paper's dynamic program by
            default, swappable for the ablation baselines in
            :mod:`repro.core.allocation` (or by registry name). May be a
            plain callable or an
            :class:`~repro.core.allocation.AllocatorFactory`.
        kernel_order: packing order of the compacted kernel
            ("topological" or "lpt"; ablation knob).
        liveness_aware: weight each cache candidate by its concurrent
            live-instance count (delta_cache + 1) so steady-state peak
            occupancy respects the capacity -- fixes the transient-spill
            gap in the paper's accounting (see repro.core.liveness).
        validate: run the full semantic validator on the produced schedule
            (cheap; disable only in tight parameter sweeps).
        prune_widths: search widths by branch-and-bound (see
            :meth:`run`). Pruning never changes the chosen plan — it only
            skips candidates that provably cannot win — so it is on by
            default; disable it to measure the exhaustive widest-first
            baseline.
        invariant_hooks: optional per-pass invariant hooks (pass name ->
            checks) forwarded to the :class:`~repro.compiler.PassManager`;
            see :func:`repro.verify.hooks.compile_invariant_hooks`.
    """

    def __init__(
        self,
        config: PimConfig,
        allocator: Optional[Allocator] = None,
        allocator_name: Optional[str] = None,
        kernel_order: str = "topological",
        liveness_aware: bool = False,
        validate: bool = True,
        prune_widths: bool = True,
        invariant_hooks: Optional[Mapping[str, Sequence[InvariantHook]]] = None,
    ):
        if allocator is not None and allocator_name is not None:
            raise ValueError("pass either allocator or allocator_name, not both")
        if allocator_name is not None:
            # Accepts budgeted specs too (``anneal:5000``); unknown names
            # raise UnknownAllocatorError (a ValueError) listing the
            # registry, mirroring the --allocator CLI choices.
            allocator = allocator_from_spec(allocator_name)
        self.config = config
        self.allocator = allocator if allocator is not None else dp_allocate
        self.kernel_order = kernel_order
        self.liveness_aware = liveness_aware
        self.validate = validate
        self.prune_widths = prune_widths
        self.invariant_hooks = invariant_hooks
        self.pipeline = PipelineConfig(
            allocator=self.allocator,
            kernel_order=kernel_order,
            liveness_aware=liveness_aware,
            validate=validate,
        )

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self, graph: TaskGraph) -> ParaConvResult:
        """Execute the full pipeline, maximizing application throughput.

        The paper's objective is "the maximum application throughput while
        minimizing the overall off-chip fetching": the pipeline is
        evaluated over every candidate PE-group width (one iteration per
        group, iterations replicated across groups) and the assignment
        with the smallest total execution time over the configured
        iteration count wins; ties prefer wider groups (lower latency and
        shorter prologue) via the explicit ``(total_time, -width)`` key.

        Width-invariant work (graph validation, ASAP levels, work sums,
        the edge price table, the transfer critical path per period
        floor) is hoisted out of the loop. With ``prune_widths`` the
        search is a branch-and-bound that builds only the widths that can
        still win:

        * widths are visited in ascending ``(bound, -width)`` order, where
          ``bound`` is :func:`repro.compiler.width_lower_bound`; the first
          width whose key exceeds the incumbent's ``(total_time, -width)``
          ends the search, and it and every later width are pruned;
        * after a width's kernel stage, a width whose
          :func:`repro.compiler.kernel_stage_floor` key exceeds the
          incumbent's skips the plan stage.

        Both bounds are admissible, so the produced plan is the one the
        exhaustive widest-first loop (``prune_widths=False``) returns.
        The attached ``compile_stats`` records what each width ran.
        """
        started = time.perf_counter()
        stats = CompileStats(pruning_enabled=self.prune_widths)

        base = CompileContext(graph=graph, config=self.config)
        PassManager(
            [ValidateGraphPass()], hooks=self.invariant_hooks
        ).run(base, stats)
        kernel_stage = self.pipeline.kernel_manager(hooks=self.invariant_hooks)
        plan_stage = self.pipeline.plan_manager(hooks=self.invariant_hooks)
        iterations = self.config.iterations
        widths = candidate_group_widths(self.config.num_pes)
        bounds: Dict[int, int] = {}
        if self.prune_widths:
            bounds = self._width_bounds(base, widths)
            widths.sort(key=lambda width: (bounds[width], -width))

        best: Optional[ParaConvResult] = None
        best_ctx: Optional[CompileContext] = None
        best_key = None
        for index, width in enumerate(widths):
            if (
                self.prune_widths
                and best_key is not None
                and (bounds[width], -width) > best_key
            ):
                # Widths arrive in ascending bound-key order: none of the
                # rest can beat the incumbent either.
                for rest in widths[index:]:
                    stats.record_pruned(rest)
                break
            width_started = time.perf_counter()
            ctx = base.fork_for_width(width)
            kernel_stage.run(ctx, stats)
            if (
                self.prune_widths
                and best_key is not None
                and (kernel_stage_floor(ctx, iterations), -width) > best_key
            ):
                stats.record_cut(width)
                continue
            plan_stage.run(ctx, stats)
            result = self._assemble(ctx, census=False)
            stats.record_width(width, time.perf_counter() - width_started)
            key = (result.total_time(), -width)
            if best_key is None or key < best_key:
                best, best_ctx, best_key = result, ctx, key
        assert best is not None and best_ctx is not None
        best.case_histogram = case_census(best_ctx.get("timings"))
        stats.best_width = best.group_width
        stats.record_search(getattr(best.allocation, "search_stats", None))
        stats.total_seconds = time.perf_counter() - started
        best.compile_stats = stats
        return best

    def _width_bounds(
        self, base: CompileContext, widths: Sequence[int]
    ) -> Dict[int, int]:
        """:func:`repro.compiler.width_lower_bound` of every width."""
        work = base.shared_total_work()
        cmax = base.shared_max_execution_time()
        # transfer_critical_path depends on the candidate only through its
        # load-balance period floor; distinct widths often share a floor
        # (the c_max clamp), so memoize per floor.
        cp_memo: Dict[int, int] = {}
        bounds: Dict[int, int] = {}
        for width in widths:
            floor = max(math.ceil(work / width), cmax)
            if floor not in cp_memo:
                cp_memo[floor] = transfer_critical_path(
                    base.graph, self.config, floor,
                    prices=base.shared_edge_prices(),
                )
            bounds[width] = width_lower_bound(
                base.graph,
                width,
                max(1, self.config.num_pes // width),
                self.config.iterations,
                total_work=work,
                max_execution_time=cmax,
                cp_transfer=cp_memo[floor],
            )
        return bounds

    def run_at_width(self, graph: TaskGraph, width: int) -> ParaConvResult:
        """Execute the pipeline with a fixed PE-group width."""
        started = time.perf_counter()
        stats = CompileStats(pruning_enabled=False)
        ctx = CompileContext(graph=graph, config=self.config, width=width)
        manager = self.pipeline.build_manager(hooks=self.invariant_hooks)
        width_started = time.perf_counter()
        manager.run(ctx, stats)
        result = self._assemble(ctx)
        stats.record_width(width, time.perf_counter() - width_started)
        stats.best_width = width
        stats.record_search(getattr(result.allocation, "search_stats", None))
        stats.total_seconds = time.perf_counter() - started
        result.compile_stats = stats
        return result

    # ------------------------------------------------------------------
    # partial-pipeline API (shared-prefix compilation)
    # ------------------------------------------------------------------
    def analysis_context(self, graph: TaskGraph, width: int) -> CompileContext:
        """Run ``validate-graph`` and the kernel stage once at a fixed width.

        The returned context holds the kernel and the edge timings. It can
        be :meth:`~repro.compiler.CompileContext.fork`-ed once per
        allocator and completed with :meth:`run_from_context`, so sweeps
        that compare allocation policies (the ablation harness) share the
        kernel and the edge analysis instead of recomputing them per
        strategy.
        """
        ctx = CompileContext(graph=graph, config=self.config, width=width)
        PassManager(
            [ValidateGraphPass(), *self.pipeline.kernel_stage()],
            hooks=self.invariant_hooks,
        ).run(ctx)
        return ctx

    def run_from_context(self, ctx: CompileContext) -> ParaConvResult:
        """Run the plan stage on a context from :meth:`analysis_context`."""
        self.pipeline.plan_manager(hooks=self.invariant_hooks).run(ctx)
        return self._assemble(ctx)

    # ------------------------------------------------------------------
    # assembly
    # ------------------------------------------------------------------
    def _assemble(
        self, ctx: CompileContext, census: bool = True
    ) -> ParaConvResult:
        """Build the result record from a fully-compiled context.

        ``census=False`` leaves the case histogram empty; the width search
        fills it in for the winning width only.
        """
        return ParaConvResult(
            graph=ctx.graph,
            config=ctx.config,
            schedule=ctx.get("schedule"),
            allocation=ctx.get("allocation"),
            case_histogram=case_census(ctx.get("timings")) if census else {},
            group_width=ctx.width,
            num_groups=ctx.num_groups,
        )
