"""Pipeline configuration, registry and the instrumented width search.

This module is the declarative face of :mod:`repro.compiler`: a
:class:`PipelineConfig` turns the old ``ParaConv`` constructor branching
(allocator choice, kernel packing order, liveness mode, validation) into
*pipeline configuration* — an ordered list of registered passes, split
into a kernel stage and a plan stage — and :class:`CompileStats` is the
per-compilation observability record (per-pass wall time, widths
explored/pruned and why each width lost) that ``--explain``, the serving
runtime and the plan cache all surface.

The width search itself lives in :meth:`repro.core.paraconv.ParaConv.run`.
It is a branch-and-bound over ``total_time = (R_max + ceil(N/J)) * p``
with two admissible lower bounds. Before a width compiles anything,
:func:`width_lower_bound` is the max of two terms:

* the *load-balance* term: the prologue is non-negative and the realized
  period can never beat the load-balance bound, so
  ``total_time >= ceil(N / J) * load_balance_bound(graph, width)``;
* the *transfer-critical-path* term: for any dependency path, summing the
  schedule's data-arrival inequality ``finish(i) + c_ij <= delta*p +
  start(j)`` and telescoping ``Σ delta <= R_max`` gives ``(R_max + 1) * p
  >= Σ (e_v + c_edge)`` — one pipelined iteration cannot beat its own
  dependence chain *including transfers* — hence ``total_time >=
  cp_transfer + (ceil(N/J) - 1) * load_balance_bound`` where
  ``cp_transfer`` prices every edge at its cheapest conceivable transfer
  ``min(period_floor, cache_transfer)`` (see
  :func:`transfer_critical_path`).

The search visits widths in ascending ``(bound, -width)`` order and stops
at the first whose key exceeds the incumbent's ``(total_time, -width)``.
Each width it visits runs up to four steps:

* the *kernel stage* (``compact-kernel``) fixes the period ``p`` and every
  op's start and finish offset. The kernel depends on the graph, the
  width and the packing order alone, so it is built once per graph and
  kept with it: a later compile of the graph, at any PE count, reuses
  the kernel of every width it visits again;
* the *period bound*: ``R_max >= 0``, so a width whose ``(ceil(N/J) * p,
  -width)`` exceeds the incumbent's key is cut in O(1);
* :func:`kernel_stage_floor` bounds ``R_max`` from below in one
  reverse-topological pass over the graph's edge table and cuts the width
  when ``((R_floor + ceil(N/J)) * p, -width)`` exceeds the incumbent's
  key — before any edge analysis. ``R_floor`` is kept with the kernel;
* the *rank stage* (``analyze-edges`` through ``solve-retiming``) yields
  ``R_max`` and so the width's ``total_time``. It reads and writes edge-row
  columns of the graph's index: the edge timings, the placements (one row
  column, every row in eDRAM but the cached ones) and the per-row deltas.
  Only the rows that compete for cache (``ΔR > 0``) become allocation
  items; the indifferent ones are derived from the rows when something
  reads them. The edge timings are kept with the kernel too, so a width
  ranked before allocates from them at once.

Only the winner then runs the *emit stage* (``emit-schedule`` and
``validate-schedule``): a losing width needs no schedule to rank.

Both bounds read one index-based edge table per graph
(:func:`repro.core.retiming.graph_edge_table`), built once per graph and
kept with its index like the other graph facts. The critical-path term
is what makes the first bound bite in the latency-oriented regime (small
``N``): narrow groups stretch the clamp on every transfer, so their
dependence chains alone already exceed a wide incumbent's total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.compiler.errors import PipelineConfigError
from repro.compiler.manager import PassManager
from repro.compiler.passes import (
    AllocatePass,
    AnalyzeEdgesPass,
    CompactKernelPass,
    CompilerPass,
    EmitSchedulePass,
    LivenessReweightPass,
    SolveRetimingPass,
    ValidateGraphPass,
    ValidateSchedulePass,
    ZeroDrPrepassPass,
)
from repro.compiler.context import CompileContext
from repro.core.retiming import (
    EdgeTable,
    RetimingError,
    analyze_edges,
    graph_edge_table,
)
from repro.core.schedule import require_layout
from repro.core.scheduler import KERNEL_ORDERS
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig

#: Registered pass constructors by canonical name. Custom pipelines (tests,
#: experiments) assemble from here; the standard pipeline is built by
#: :meth:`PipelineConfig.build_passes`.
PASS_REGISTRY: Dict[str, Callable[..., CompilerPass]] = {
    "validate-graph": ValidateGraphPass,
    "compact-kernel": CompactKernelPass,
    "analyze-edges": AnalyzeEdgesPass,
    "zero-dr-prepass": ZeroDrPrepassPass,
    "dp-allocate": AllocatePass,
    "liveness-reweight": LivenessReweightPass,
    "solve-retiming": SolveRetimingPass,
    "emit-schedule": EmitSchedulePass,
    "validate-schedule": ValidateSchedulePass,
}


# ----------------------------------------------------------------------
# observability
# ----------------------------------------------------------------------
@dataclass
class CompileStats:
    """Per-compilation breakdown: where the compile time went.

    Attributes:
        pass_seconds: cumulative wall seconds per pass name (summed over
            every width the search explored).
        pass_runs: number of times each pass executed.
        widths_explored: candidate widths fully compiled, in search order.
        widths_pruned: candidate widths that got no plan, in search order:
            skipped by the lower-bound rule or cut after the kernel stage.
        widths_cut_after_kernel: the pruned widths that ran the kernel
            stage and were cut before the plan stage, by their period
            bound or their kernel-stage floor.
        widths_cut_by_period: the cut widths whose period bound
            ``ceil(N/J) * p`` already lost, so their kernel-stage floor
            was never computed.
        lost_to: why each pruned width lost: its bound (the width's
            lower bound, or its period bound or kernel-stage floor if it
            was cut) and the incumbent's ``(total_time, -width)`` key
            that the ``(bound, -width)`` key exceeded.
        per_width_seconds: wall seconds spent ranking each explored width
            (kernel through ``solve-retiming``).
        widths_kernel_reused: the widths whose kernel stage found the
            kernel kept with the graph (an earlier compile of it built
            it), in search order.
        floor_runs / floor_seconds: calls of :func:`kernel_stage_floor`
            and their wall seconds. The floor is not a pass, so its time
            is in ``total_seconds`` but not in ``pass_seconds``.
        best_width: the winning group width (set by the search).
        pruning_enabled: whether the lower-bound pruning was active.
        total_seconds: end-to-end wall time of the compile entry point.
    """

    pass_seconds: Dict[str, float] = field(default_factory=dict)
    pass_runs: Dict[str, int] = field(default_factory=dict)
    widths_explored: List[int] = field(default_factory=list)
    widths_pruned: List[int] = field(default_factory=list)
    widths_cut_after_kernel: List[int] = field(default_factory=list)
    widths_cut_by_period: List[int] = field(default_factory=list)
    lost_to: Dict[int, Tuple[int, Tuple[int, int]]] = field(
        default_factory=dict
    )
    per_width_seconds: Dict[int, float] = field(default_factory=dict)
    widths_kernel_reused: List[int] = field(default_factory=list)
    floor_runs: int = 0
    floor_seconds: float = 0.0
    best_width: Optional[int] = None
    pruning_enabled: bool = True
    total_seconds: float = 0.0

    # -- recording ------------------------------------------------------
    def record_pass(self, name: str, seconds: float) -> None:
        self.pass_seconds[name] = self.pass_seconds.get(name, 0.0) + seconds
        self.pass_runs[name] = self.pass_runs.get(name, 0) + 1

    def record_width(self, width: int, seconds: float) -> None:
        self.widths_explored.append(width)
        self.per_width_seconds[width] = seconds

    def record_kernel_reused(self, width: int) -> None:
        """A width whose kernel stage reused the graph's kept kernel."""
        self.widths_kernel_reused.append(width)

    def record_floor(self, seconds: float) -> None:
        """One :func:`kernel_stage_floor` call."""
        self.floor_runs += 1
        self.floor_seconds += seconds

    def record_pruned(
        self, width: int, bound: int, incumbent: Tuple[int, int]
    ) -> None:
        """A width skipped by its lower bound, before compiling."""
        self.widths_pruned.append(width)
        self.lost_to[width] = (bound, incumbent)

    def record_cut(
        self, width: int, floor: int, incumbent: Tuple[int, int]
    ) -> None:
        """A width pruned by its kernel-stage floor."""
        self.widths_pruned.append(width)
        self.widths_cut_after_kernel.append(width)
        self.lost_to[width] = (floor, incumbent)

    def record_period_cut(
        self, width: int, bound: int, incumbent: Tuple[int, int]
    ) -> None:
        """A width pruned after its kernel stage by the period bound
        ``ceil(N/J) * p``, before its kernel-stage floor."""
        self.record_cut(width, bound, incumbent)
        self.widths_cut_by_period.append(width)

    # -- interrogation --------------------------------------------------
    @property
    def num_explored(self) -> int:
        return len(self.widths_explored)

    @property
    def num_pruned(self) -> int:
        return len(self.widths_pruned)

    @property
    def pass_seconds_total(self) -> float:
        return sum(self.pass_seconds.values())

    def as_dict(self) -> Dict[str, Any]:
        """JSON-compatible dump with deterministic key order."""
        return {
            "pass_seconds": {
                name: self.pass_seconds[name]
                for name in sorted(self.pass_seconds)
            },
            "pass_runs": {
                name: self.pass_runs[name] for name in sorted(self.pass_runs)
            },
            "widths_explored": list(self.widths_explored),
            "widths_pruned": list(self.widths_pruned),
            "widths_cut_after_kernel": list(self.widths_cut_after_kernel),
            "widths_cut_by_period": list(self.widths_cut_by_period),
            "lost_to": {
                str(width): [bound, list(incumbent)]
                for width, (bound, incumbent) in self.lost_to.items()
            },
            "per_width_seconds": {
                str(width): self.per_width_seconds[width]
                for width in sorted(self.per_width_seconds)
            },
            "widths_kernel_reused": list(self.widths_kernel_reused),
            "best_width": self.best_width,
            "pruning_enabled": self.pruning_enabled,
            "total_seconds": self.total_seconds,
        }

    def _loss_lines(self) -> List[str]:
        """One line per pruned width: the bound that beat it and why."""
        cut = set(self.widths_cut_after_kernel)
        by_period = set(self.widths_cut_by_period)
        lines = []
        for width in self.widths_pruned:
            bound, (total, neg_width) = self.lost_to[width]
            if width in by_period:
                name, where = "period", "cut before the staged floor"
            elif width in cut:
                name, where = "floor", "cut before edge analysis"
            else:
                name, where = "bound", "never compiled"
            relation = ">" if bound > total else "="
            lines.append(
                f"  {width}: {name} {bound} {relation} incumbent {total} "
                f"at width {-neg_width} ({where})"
            )
        return lines

    def explain(self) -> str:
        """Human-readable per-pass breakdown (the ``--explain`` body)."""
        lines = [
            f"{'pass':<20} {'runs':>5} {'total ms':>10} {'mean ms':>9}"
        ]
        for name in self.pass_seconds:  # insertion = execution order
            runs = self.pass_runs[name]
            total_ms = self.pass_seconds[name] * 1e3
            mean_ms = total_ms / runs if runs else 0.0
            lines.append(
                f"{name:<20} {runs:>5} {total_ms:>10.3f} {mean_ms:>9.3f}"
            )
        explored = ", ".join(str(w) for w in self.widths_explored) or "-"
        pruned = ", ".join(str(w) for w in self.widths_pruned) or "-"
        lines.append(
            f"widths explored     : {explored} "
            f"({self.num_explored} ranked)"
        )
        cut = ", ".join(str(w) for w in self.widths_cut_after_kernel) or "-"
        lines.append(
            f"widths pruned       : {pruned} ({self.num_pruned} skipped, "
            f"pruning {'on' if self.pruning_enabled else 'off'})"
        )
        lines.append(
            f"cut after kernel    : {cut} "
            f"({len(self.widths_cut_after_kernel)} of the skipped, "
            f"{len(self.widths_cut_by_period)} by the period bound)"
        )
        lines.extend(self._loss_lines())
        kernel_stages = self.num_explored + len(self.widths_cut_after_kernel)
        reused = ", ".join(str(w) for w in self.widths_kernel_reused) or "-"
        lines.append(
            f"kernels reused      : {reused} "
            f"({len(self.widths_kernel_reused)} of {kernel_stages} kernel "
            f"stages)"
        )
        lines.append(
            f"kernel-stage floor  : {self.floor_runs} runs, "
            f"{self.floor_seconds * 1e3:.3f} ms (outside the passes)"
        )
        if self.best_width is not None:
            lines.append(f"best width          : {self.best_width}")
        lines.append(
            f"compile wall time   : {self.total_seconds * 1e3:.3f} ms "
            f"({self.pass_seconds_total * 1e3:.3f} ms inside passes)"
        )
        return "\n".join(lines)


# ----------------------------------------------------------------------
# configuration
# ----------------------------------------------------------------------
@dataclass
class PipelineConfig:
    """Declarative pipeline configuration (replaces constructor branching).

    The per-width passes split into two stages. The *kernel stage*
    (``compact-kernel``) fixes the period and every op's offsets; the
    width search's :func:`kernel_stage_floor` runs between the two. The
    *plan stage* (``analyze-edges`` through ``validate-schedule``)
    derives every edge's delta under both placements, then allocates,
    retimes, emits and validates without changing the kernel. The width
    search runs the plan stage in two parts: the *rank stage* (through
    ``solve-retiming``) on every width it explores, the *emit stage*
    (``emit-schedule``, ``validate-schedule``) on the winner only.

    Attributes:
        allocator: a plain allocator callable, an
            :class:`~repro.core.allocation.AllocatorFactory`, or a factory
            class — resolved per run by the ``dp-allocate`` pass.
        kernel_order: kernel packing order (one of
            :data:`~repro.core.scheduler.KERNEL_ORDERS`); anything else
            raises :class:`PipelineConfigError` here.
        liveness_aware: insert the ``liveness-reweight`` pass.
        validate: run the ``validate-schedule`` pass. The kernel is
            always validated, once per graph, order and width, when the
            kernel stage builds it.
    """

    allocator: Union[Callable, object]
    kernel_order: str = "topological"
    liveness_aware: bool = False
    validate: bool = True

    def __post_init__(self) -> None:
        check_kernel_order(self.kernel_order)

    def kernel_stage(self) -> List[CompilerPass]:
        """Passes that build the kernel."""
        return [CompactKernelPass(order=self.kernel_order)]

    def plan_stage(self) -> List[CompilerPass]:
        """Passes that turn a kernel-stage context into a validated plan."""
        return [AnalyzeEdgesPass(), *self.allocation_stage()]

    def allocation_stage(self) -> List[CompilerPass]:
        """The plan stage after ``analyze-edges``: the passes that differ
        between allocators."""
        return [*self.retiming_passes(), *self.emit_stage()]

    def rank_stage(self) -> List[CompilerPass]:
        """The plan stage up to ``solve-retiming``: enough to rank a width
        by ``(R_max + ceil(N/J)) * p``."""
        return [AnalyzeEdgesPass(), *self.retiming_passes()]

    def emit_stage(self) -> List[CompilerPass]:
        """The plan stage after ``solve-retiming``: emit the schedule and
        validate it."""
        passes: List[CompilerPass] = [EmitSchedulePass()]
        if self.validate:
            passes.append(ValidateSchedulePass())
        return passes

    def retiming_passes(self) -> List[CompilerPass]:
        """``zero-dr-prepass`` through ``solve-retiming``."""
        passes: List[CompilerPass] = [
            ZeroDrPrepassPass(),
            AllocatePass(self.allocator),
        ]
        if self.liveness_aware:
            passes.append(LivenessReweightPass())
        passes.append(SolveRetimingPass())
        return passes

    def build_passes(self) -> List[CompilerPass]:
        """The full pipeline, ``validate-graph`` included."""
        return [ValidateGraphPass(), *self.kernel_stage(), *self.plan_stage()]

    def build_manager(self, hooks=None) -> PassManager:
        """A validated :class:`PassManager` for the full pipeline.

        Args:
            hooks: optional per-pass invariant hooks (see
                :mod:`repro.verify.hooks`).
        """
        return PassManager(self.build_passes(), hooks=hooks)

    def kernel_manager(self, hooks=None) -> PassManager:
        """The kernel stage, for contexts forked from a validated base."""
        return self._stage_manager(self.kernel_stage(), [], hooks)

    def allocation_manager(self, hooks=None) -> PassManager:
        """The allocation stage, for contexts that ran ``analyze-edges``."""
        return self._stage_manager(
            self.allocation_stage(),
            [*self.kernel_stage(), AnalyzeEdgesPass()],
            hooks,
        )

    def rank_manager(self, hooks=None) -> PassManager:
        """The rank stage, for contexts the kernel stage completed."""
        return self._stage_manager(
            self.rank_stage(), self.kernel_stage(), hooks
        )

    def emit_manager(self, hooks=None) -> PassManager:
        """The emit stage, for contexts the rank stage completed."""
        return self._stage_manager(
            self.emit_stage(),
            [*self.kernel_stage(), *self.rank_stage()],
            hooks,
        )

    @staticmethod
    def _stage_manager(
        stage: List[CompilerPass], after: List[CompilerPass], hooks
    ) -> PassManager:
        """A manager for ``stage`` on contexts that ran ``validate-graph``
        and the passes ``after``."""
        built = [a for p in after for a in p.produces]
        return PassManager(
            stage, initial_artifacts=("graph-valid", *built), hooks=hooks
        )


def check_kernel_order(order: str) -> None:
    """Raise :class:`PipelineConfigError` unless ``order`` is a packing
    order the kernel compactor knows."""
    if order not in KERNEL_ORDERS:
        raise PipelineConfigError(
            f"unknown kernel order {order!r}; choose from "
            f"{', '.join(KERNEL_ORDERS)}"
        )


def build_pass(name: str, **kwargs) -> CompilerPass:
    """Instantiate a registered pass by name (typed error on unknowns)."""
    try:
        factory = PASS_REGISTRY[name]
    except KeyError:
        known = ", ".join(sorted(PASS_REGISTRY))
        raise PipelineConfigError(
            f"unknown pass {name!r}; registered: {known}"
        ) from None
    return factory(**kwargs)


# ----------------------------------------------------------------------
# width-search pruning
# ----------------------------------------------------------------------
def transfer_critical_path(
    graph: TaskGraph,
    config: PimConfig,
    period_floor: int,
    table: Optional[EdgeTable] = None,
) -> int:
    """Longest dependency chain priced with best-case transfers.

    Classic DAG longest-path DP where a vertex contributes its execution
    time and an edge contributes ``min(period_floor, cache_transfer)`` —
    the cheapest transfer the schedule could conceivably realize for that
    intermediate result, since the emitted transfer time is
    ``min(p, t_placement)`` with ``p >= period_floor`` and ``t_placement
    >= t_cache`` (cache is the fast tier). The returned value therefore
    lower-bounds ``(R_max + 1) * p`` for *any* legal schedule whose
    period is at least ``period_floor``: summing the data-arrival
    inequality ``finish(i) + c_ij <= delta * p + start(j)`` along the
    path and telescoping ``sum(delta) <= R_max`` leaves ``(R_max + 1) *
    p >= sum(e_v + c_edge)``.

    One forward pass over the edge table's rows: they are sorted by
    producer position, so a vertex's arrival is final before its first
    out-edge is read.

    Args:
        graph: validated task graph.
        config: machine description (prices the cache transfers).
        period_floor: an admissible lower bound on the schedule period at
            the candidate width (the load-balance bound).
        table: :func:`~repro.core.retiming.edge_table` of the same graph
            and machine; :func:`~repro.core.retiming.graph_edge_table`
            when omitted.

    Returns:
        The maximum over all dependency paths of
        ``sum(execution_time) + sum(min(period_floor, cache_transfer))``.
    """
    if table is None:
        table = graph_edge_table(graph, config)
    # reach[v]: the longest priced chain that ends where v starts.
    reach = [0] * len(table.index.op_ids)
    for producer, consumer, cache_units, _edram, execution_time in table.rows:
        arrival = reach[producer] + execution_time + (
            cache_units if cache_units < period_floor else period_floor
        )
        if arrival > reach[consumer]:
            reach[consumer] = arrival
    return max(
        (start + run for start, run in zip(reach, table.index.execution_times)),
        default=0,
    )


def kernel_stage_floor(ctx: CompileContext, iterations: int) -> int:
    """Lower bound on ``total_time`` of any plan on ``ctx``'s kernel.

    ``ctx`` has run the kernel stage. The plan stage never changes the
    kernel, so ``p`` is fixed, and every plan's ``R_max`` is at least
    ``R_floor``, the minimal retiming with every edge at its cache delta:
    ``total_time >= (R_floor + ceil(N / J)) * p``. Every allocator gives
    each edge the cache or the eDRAM delta, the eDRAM transfer is never
    faster, and the minimal retiming only grows with a delta.

    ``R_floor`` reads only the kernel and the edge table, so on a kept
    kernel and the graph's own table it is one int computed once and kept
    with the kernel
    (:meth:`~repro.compiler.context.CompileContext.kernel_derived`);
    ``iterations`` and the group count are applied per call. Computing it
    is one reverse pass over the context's edge table, reading the
    kernel's ``start``/``finish`` columns by vertex; it builds no
    :class:`~repro.core.retiming.EdgeTiming`. A cut width never runs
    :func:`~repro.core.retiming.analyze_edges`, so the pass keeps its
    checks: on an inverted memory hierarchy, a delta beyond Theorem 3.1's
    bound of 2 or an op missing from the kernel it raises the error
    ``analyze_edges`` raises on this kernel.
    """
    kernel = ctx.get("kernel")
    r_floor = ctx.kernel_derived("floor", lambda: _cache_retiming(ctx, kernel))
    rounds = math.ceil(iterations / ctx.num_groups)
    return (r_floor + rounds) * kernel.period


def _cache_retiming(ctx: CompileContext, kernel) -> int:
    """``R_floor`` of :func:`kernel_stage_floor`: ``R_max`` of the minimal
    retiming of ``kernel`` with every edge at its cache delta."""
    period = kernel.period
    if period <= 0:
        raise RetimingError("kernel period must be positive")
    table = ctx.shared_edge_table()
    require_layout(kernel, table.index)
    starts, finishes = kernel.start, kernel.finish
    twice = 2 * period
    # retiming[v]: the minimal R(v) with every edge at its cache delta.
    retiming = [0] * len(starts)
    for producer, consumer, cache_units, edram_units, _ in reversed(
        table.rows
    ):
        t_cache = cache_units if cache_units < period else period
        t_edram = edram_units if edram_units < period else period
        gap = finishes[producer] - starts[consumer]
        # delta_edram > 2 exactly when gap + t_edram > 2p, and
        # delta_cache <= delta_edram unless the hierarchy is inverted.
        if t_edram < t_cache or gap + t_edram > twice:
            # Raise what analyze_edges raises on this kernel.
            analyze_edges(ctx.graph, kernel, ctx.config, table=table)
            op_ids = table.index.op_ids
            raise RetimingError(
                f"edge {(op_ids[producer], op_ids[consumer])}: fails an "
                "edge check that analyze_edges passes (internal error)"
            )
        need = gap + t_cache
        # delta_cache = required_retiming(finish, start, t_cache, p), inlined.
        reach = retiming[consumer] + (-(-need // period) if need > 0 else 0)
        if reach > retiming[producer]:
            retiming[producer] = reach
    return max(retiming, default=0)


def width_lower_bound(
    graph: TaskGraph,
    width: int,
    num_groups: int,
    iterations: int,
    total_work: Optional[int] = None,
    max_execution_time: Optional[int] = None,
    config: Optional[PimConfig] = None,
    cp_transfer: Optional[int] = None,
) -> int:
    """Lower bound on ``total_time`` at one candidate width.

    ``total_time = R_max * p + ceil(N / J) * p`` with ``R_max >= 0`` and
    ``p >= load_balance_bound``, so the *load-balance* term
    ``ceil(N / J) * max(ceil(W / width), c_max)`` is always admissible.

    When a machine ``config`` is supplied the bound is sharpened with the
    *transfer-critical-path* term: ``(R_max + 1) * p`` dominates every
    dependency chain priced at best-case transfers (see
    :func:`transfer_critical_path`), hence ``total_time = (R_max + 1) * p
    + (ceil(N / J) - 1) * p >= cp + (ceil(N / J) - 1) *
    load_balance_bound``. The final bound is the max of both terms.

    ``total_work``/``max_execution_time``/``cp_transfer`` may be passed
    precomputed (the search hoists and memoizes them) to keep the bound
    O(1) per candidate.
    """
    work = graph.total_work() if total_work is None else total_work
    cmax = (
        graph.max_execution_time()
        if max_execution_time is None
        else max_execution_time
    )
    if width < 1 or num_groups < 1 or iterations < 1:
        raise PipelineConfigError(
            "width, num_groups and iterations must all be >= 1"
        )
    bound_period = max(math.ceil(work / width), cmax)
    groups_rounds = math.ceil(iterations / num_groups)
    bound = groups_rounds * bound_period
    if cp_transfer is None and config is not None:
        cp_transfer = transfer_critical_path(graph, config, bound_period)
    if cp_transfer is not None:
        bound = max(
            bound, cp_transfer + (groups_rounds - 1) * bound_period
        )
    return bound
