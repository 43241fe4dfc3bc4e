"""Pipeline configuration, registry and the instrumented width search.

This module is the declarative face of :mod:`repro.compiler`: a
:class:`PipelineConfig` turns the old ``ParaConv`` constructor branching
(allocator choice, kernel packing order, liveness mode, validation) into
*pipeline configuration* — an ordered list of registered passes, split
into a kernel stage and a plan stage — and :class:`CompileStats` is the
per-compilation observability record (per-pass wall time, widths
explored/pruned) that ``--explain``, the serving runtime and the plan
cache all surface.

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
After a width's kernel stage, :func:`kernel_stage_floor` fixes ``p`` and
bounds ``R_max`` from below by :func:`~repro.core.retiming.retiming_floor`;
a width whose floor key exceeds the incumbent's skips the plan stage.
The critical-path term is what makes the first bound bite in the
latency-oriented regime (small ``N``): narrow groups stretch the clamp
on every transfer, so their dependence chains alone already exceed a
wide incumbent's total.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

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
from repro.core.retiming import EdgePrice, price_edges, retiming_floor
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
            stage and were cut by its floor before the plan stage.
        per_width_seconds: wall seconds spent compiling each explored width.
        best_width: the winning group width (set by the search).
        pruning_enabled: whether the lower-bound pruning was active.
        total_seconds: end-to-end wall time of the compile entry point.
    """

    pass_seconds: Dict[str, float] = field(default_factory=dict)
    pass_runs: Dict[str, int] = field(default_factory=dict)
    widths_explored: List[int] = field(default_factory=list)
    widths_pruned: List[int] = field(default_factory=list)
    widths_cut_after_kernel: List[int] = field(default_factory=list)
    per_width_seconds: Dict[int, float] = field(default_factory=dict)
    best_width: Optional[int] = None
    pruning_enabled: bool = True
    total_seconds: float = 0.0
    #: search-allocator observability of the *winning* plan (None for
    #: non-search allocators): the :class:`repro.core.search.SearchStats`
    #: dict — budget, evals used, seed vs best profit, anytime trajectory.
    search: Optional[Dict[str, Any]] = None

    # -- recording ------------------------------------------------------
    def record_pass(self, name: str, seconds: float) -> None:
        self.pass_seconds[name] = self.pass_seconds.get(name, 0.0) + seconds
        self.pass_runs[name] = self.pass_runs.get(name, 0) + 1

    def record_width(self, width: int, seconds: float) -> None:
        self.widths_explored.append(width)
        self.per_width_seconds[width] = seconds

    def record_pruned(self, width: int) -> None:
        self.widths_pruned.append(width)

    def record_cut(self, width: int) -> None:
        """A width pruned by its kernel-stage floor."""
        self.widths_pruned.append(width)
        self.widths_cut_after_kernel.append(width)

    def record_search(self, search_stats: Any) -> None:
        """Attach the winning plan's search stats (no-op for None)."""
        self.search = (
            search_stats.as_dict() if search_stats is not None else None
        )

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
            "per_width_seconds": {
                str(width): self.per_width_seconds[width]
                for width in sorted(self.per_width_seconds)
            },
            "best_width": self.best_width,
            "pruning_enabled": self.pruning_enabled,
            "total_seconds": self.total_seconds,
            "search": dict(self.search) if self.search is not None else None,
        }

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
            f"({self.num_explored} compiled)"
        )
        cut = ", ".join(str(w) for w in self.widths_cut_after_kernel) or "-"
        lines.append(
            f"widths pruned       : {pruned} ({self.num_pruned} skipped, "
            f"pruning {'on' if self.pruning_enabled else 'off'})"
        )
        lines.append(
            f"cut after kernel    : {cut} "
            f"({len(self.widths_cut_after_kernel)} of the skipped)"
        )
        if self.best_width is not None:
            lines.append(f"best width          : {self.best_width}")
        if self.search is not None:
            winner = self.search.get("winner")
            method = self.search.get("method", "anneal") + (
                f" (winner: {winner})" if winner else ""
            )
            lines.append(
                f"search allocator    : {method}, "
                f"{self.search.get('evals_used', 0)}/"
                f"{self.search.get('budget', 0)} evals "
                f"(seed {self.search.get('seed', 0)})"
            )
            lines.append(
                f"search profit       : seed "
                f"{self.search.get('seed_profit', 0)} "
                f"[{self.search.get('seed_method', 'dp')}] -> best "
                f"{self.search.get('best_profit', 0)} at eval "
                f"{self.search.get('best_eval', 0)} "
                f"({self.search.get('moves_accepted', 0)} accepted / "
                f"{self.search.get('moves_rejected', 0)} rejected moves)"
            )
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
    (``compact-kernel``, ``analyze-edges``) fixes the period and every
    edge's delta under both placements; the *plan stage*
    (``zero-dr-prepass`` through ``validate-schedule``) allocates, retimes,
    emits and validates without changing the kernel.

    Attributes:
        allocator: a plain allocator callable, an
            :class:`~repro.core.allocation.AllocatorFactory`, or a factory
            class — resolved per run by the ``dp-allocate`` pass.
        kernel_order: kernel packing order (one of
            :data:`~repro.core.scheduler.KERNEL_ORDERS`); anything else
            raises :class:`PipelineConfigError` here.
        liveness_aware: insert the ``liveness-reweight`` pass.
        validate: run kernel/schedule validation passes.
    """

    allocator: Union[Callable, object]
    kernel_order: str = "topological"
    liveness_aware: bool = False
    validate: bool = True

    def __post_init__(self) -> None:
        check_kernel_order(self.kernel_order)

    def kernel_stage(self) -> List[CompilerPass]:
        """Passes that build the kernel and price its edges."""
        return [
            CompactKernelPass(order=self.kernel_order, validate=self.validate),
            AnalyzeEdgesPass(),
        ]

    def plan_stage(self) -> List[CompilerPass]:
        """Passes that turn a kernel-stage context into a validated plan."""
        passes: List[CompilerPass] = [
            ZeroDrPrepassPass(),
            AllocatePass(self.allocator),
        ]
        if self.liveness_aware:
            passes.append(LivenessReweightPass())
        passes.append(SolveRetimingPass())
        passes.append(EmitSchedulePass())
        if self.validate:
            passes.append(ValidateSchedulePass())
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
        return PassManager(
            self.kernel_stage(), initial_artifacts=("graph-valid",), hooks=hooks
        )

    def plan_manager(self, hooks=None) -> PassManager:
        """The plan stage, for contexts the kernel stage completed."""
        built = [a for p in self.kernel_stage() for a in p.produces]
        return PassManager(
            self.plan_stage(),
            initial_artifacts=("graph-valid", *built),
            hooks=hooks,
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
    prices: Optional[Sequence[EdgePrice]] = None,
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

    Args:
        graph: validated task graph.
        config: machine description (prices the cache transfers).
        period_floor: an admissible lower bound on the schedule period at
            the candidate width (the load-balance bound).
        prices: :func:`~repro.core.retiming.price_edges` of the same graph
            and machine, when the caller already holds it.

    Returns:
        The maximum over all dependency paths of
        ``sum(execution_time) + sum(min(period_floor, cache_transfer))``.
    """
    if prices is None:
        prices = price_edges(graph, config)
    incoming: Dict[int, List[Tuple[int, int]]] = {}
    for _key, producer, consumer, cache_units, _edram, _slots in prices:
        cost = cache_units if cache_units < period_floor else period_floor
        incoming.setdefault(consumer, []).append((producer, cost))
    longest: Dict[int, int] = {}
    for op_id in graph.topological_order():
        reach = 0
        for producer, cost in incoming.get(op_id, ()):
            arrival = longest[producer] + cost
            if arrival > reach:
                reach = arrival
        longest[op_id] = reach + graph.operation(op_id).execution_time
    return max(longest.values()) if longest else 0


def kernel_stage_floor(ctx: CompileContext, iterations: int) -> int:
    """Lower bound on ``total_time`` of any plan on ``ctx``'s kernel.

    ``ctx`` has run the kernel stage. The plan stage never changes the
    kernel, so ``p`` is fixed, and every plan's ``R_max`` is at least
    :func:`~repro.core.retiming.retiming_floor` of the edge timings:
    ``total_time >= (R_floor + ceil(N / J)) * p``.
    """
    period = ctx.get("kernel").period
    rounds = math.ceil(iterations / ctx.num_groups)
    return (retiming_floor(ctx.graph, ctx.get("timings")) + rounds) * period


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
