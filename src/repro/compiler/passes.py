"""The named passes that make up the Para-CONV compile pipeline.

Each pass wraps one stage of the paper's Section-3 construction (or one of
this reproduction's extensions) behind the uniform :class:`CompilerPass`
contract: declared ``requires``/``produces``/``replaces`` artifact sets and
a ``run(ctx)`` body that only talks to the
:class:`~repro.compiler.context.CompileContext`. The
:class:`~repro.compiler.manager.PassManager` statically validates the
contracts, times every ``run`` and fires per-pass invariant hooks.

========================= ============================================
pass                      paper stage
========================= ============================================
``validate-graph``        structural DAG preconditions (width-invariant)
``compact-kernel``        Figure 3(b) compacted steady-state kernel
``analyze-edges``         Section 3.2 extra-data-movement analysis
``zero-dr-prepass``       Section 3.2: ``ΔR = 0`` results go to eDRAM
``dp-allocate``           Section 3.3 ``B[S, m]`` (or an ablation
                          allocator resolved from the registry)
``liveness-reweight``     liveness-corrected re-allocation (extension)
``solve-retiming``        Section 2.3/3.2 minimal legal vertex retiming
``emit-schedule``         periodic schedule + placements + transfers
``validate-schedule``     full semantic validation of the emitted plan
========================= ============================================
"""

from __future__ import annotations

from operator import sub
from typing import Callable, Tuple, Union

from repro.compiler.context import CompileContext
from repro.core.allocation import (
    AllocationProblem,
    AllocationResult,
    resolve_allocator,
)
from repro.core.retiming import (
    analyze_edges,
    emit_schedule,
    placed_deltas,
    solve_retiming,
)
from repro.core.schedule import ScheduleError, validate_periodic_schedule

Allocator = Callable[[AllocationProblem], AllocationResult]


class CompilerPass:
    """One named, contract-checked stage of the compile pipeline.

    Attributes:
        name: unique pass name (the observability key).
        requires: artifact names that must exist before the pass runs.
        produces: artifact names the pass must create (write-once).
        replaces: artifact names the pass is allowed to overwrite.
    """

    name: str = "<unnamed>"
    requires: Tuple[str, ...] = ()
    produces: Tuple[str, ...] = ()
    replaces: Tuple[str, ...] = ()

    def run(self, ctx: CompileContext) -> None:  # pragma: no cover - abstract
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name!r}>"


class ValidateGraphPass(CompilerPass):
    """Structural preconditions; width-invariant, hoisted by the search.

    Also primes the shared width-invariant precomputation (ASAP levels,
    total work, max execution time, edge prices and their edge table in
    the graph's index space) so per-width pipeline runs share it. Each
    is built once per graph and kept with its index, so a later compile
    of the graph only looks them up.
    """

    name = "validate-graph"
    requires = ()
    produces = ("graph-valid",)

    def run(self, ctx: CompileContext) -> None:
        ctx.graph.validate()
        # Prime the width-invariant precomputation (built once per graph).
        ctx.shared_total_work()
        ctx.shared_max_execution_time()
        ctx.shared_asap_levels()
        ctx.shared_edge_table()
        ctx.put("graph-valid", True)


class CompactKernelPass(CompilerPass):
    """Paper step 2: the compacted steady-state kernel (Figure 3(b)).

    The kernel depends only on the graph, the group width and the packing
    order, not on the PE count, ``N``, the allocator or the vaults. It is
    built and validated once per graph, order and width and kept with the
    graph (:meth:`~repro.compiler.context.CompileContext.shared_kernel`);
    the pass puts that shared, read-only kernel. A reuse still runs the
    pass.
    """

    name = "compact-kernel"
    requires = ("graph-valid",)
    produces = ("kernel",)

    def __init__(self, order: str = "topological"):
        self.order = order

    def run(self, ctx: CompileContext) -> None:
        width = ctx.width
        if width is None:
            raise ScheduleError("compact-kernel needs a group width")
        if not 1 <= width <= ctx.config.num_pes:
            raise ScheduleError(
                f"group width {width} outside [1, {ctx.config.num_pes}]"
            )
        ctx.put("kernel", ctx.shared_kernel(self.order))


class AnalyzeEdgesPass(CompilerPass):
    """Paper step 3: per-edge retiming analysis (Section 3.2).

    The timings depend only on the kernel and the edge table, so on a
    kept kernel and the graph's own table they are computed once and kept
    with the kernel
    (:meth:`~repro.compiler.context.CompileContext.kernel_derived`).
    """

    name = "analyze-edges"
    requires = ("kernel",)
    produces = ("timings",)

    def run(self, ctx: CompileContext) -> None:
        ctx.put(
            "timings",
            ctx.kernel_derived(
                "timings",
                lambda: analyze_edges(
                    ctx.graph,
                    ctx.get("kernel"),
                    ctx.config,
                    table=ctx.shared_edge_table(),
                ),
            ),
        )


class ZeroDrPrepassPass(CompilerPass):
    """Paper step 4: placement-indifferent results (``ΔR = 0``) to eDRAM.

    Builds the deadline-sorted :class:`AllocationProblem`; the prepass is
    the competing-row mask of :meth:`AllocationProblem.from_timings`: only
    the rows with ``ΔR > 0`` become items, and every other row stays in
    eDRAM (``indifferent`` is derived from the mask when read).
    """

    name = "zero-dr-prepass"
    requires = ("timings",)
    produces = ("problem",)

    def run(self, ctx: CompileContext) -> None:
        ctx.put(
            "problem",
            AllocationProblem.from_timings(
                ctx.get("timings"), ctx.capacity_slots
            ),
        )


class AllocatePass(CompilerPass):
    """Paper step 5: the ``B[S, m]`` dynamic program (or a swapped-in
    ablation allocator resolved through the registry/factory protocol)."""

    name = "dp-allocate"
    requires = ("problem", "timings")
    produces = ("resolved-allocator", "allocation")

    def __init__(self, allocator: Union[Allocator, object]):
        self.allocator = allocator

    def run(self, ctx: CompileContext) -> None:
        allocator = resolve_allocator(
            self.allocator, ctx.graph, ctx.get("timings")
        )
        ctx.put("resolved-allocator", allocator)
        ctx.put("allocation", allocator(ctx.get("problem")))


class LivenessReweightPass(CompilerPass):
    """Liveness-corrected second allocation pass (extension).

    Solves a provisional retiming for the first-pass allocation, derives
    each edge's *realized* live-instance count ``R(i) - R(j) + 1`` and
    re-runs the allocator on the liveness-weighted problem, exactly as the
    monolithic ``ParaConv(liveness_aware=True)`` did.
    """

    name = "liveness-reweight"
    requires = ("allocation", "timings", "resolved-allocator")
    produces = ()
    replaces = ("problem", "allocation")

    def run(self, ctx: CompileContext) -> None:
        from repro.core.liveness import liveness_weighted_problem

        timings = ctx.get("timings")
        allocation = ctx.get("allocation")
        provisional = solve_retiming(
            ctx.graph, placed_deltas(timings, allocation.placements)
        )
        # R(i) - R(j) by edge row.
        vertex, index = provisional.vertex_r, provisional.index
        realized = list(
            map(
                sub,
                map(vertex.__getitem__, index.producers),
                map(vertex.__getitem__, index.consumers),
            )
        )
        problem = liveness_weighted_problem(
            timings, ctx.capacity_slots, realized
        )
        ctx.replace("problem", problem)
        ctx.replace("allocation", ctx.get("resolved-allocator")(problem))


class SolveRetimingPass(CompilerPass):
    """Paper step 6: propagate per-edge requirements into the minimal
    legal vertex retiming (``R_max``, prologue)."""

    name = "solve-retiming"
    requires = ("allocation", "timings")
    produces = ("retiming",)

    def run(self, ctx: CompileContext) -> None:
        deltas = placed_deltas(
            ctx.get("timings"), ctx.get("allocation").placements
        )
        ctx.put("retiming", solve_retiming(ctx.graph, deltas))


class EmitSchedulePass(CompilerPass):
    """Assemble the deployable periodic schedule from the artifacts."""

    name = "emit-schedule"
    requires = ("kernel", "timings", "allocation", "retiming")
    produces = ("schedule",)

    def run(self, ctx: CompileContext) -> None:
        ctx.put(
            "schedule",
            emit_schedule(
                ctx.graph,
                ctx.get("kernel"),
                ctx.get("timings"),
                ctx.get("allocation").placements,
                ctx.get("retiming"),
            ),
        )


class ValidateSchedulePass(CompilerPass):
    """Full semantic validation of the emitted schedule."""

    name = "validate-schedule"
    requires = ("schedule",)
    produces = ("schedule-valid",)

    def run(self, ctx: CompileContext) -> None:
        validate_periodic_schedule(ctx.get("schedule"))
        ctx.put("schedule-valid", True)
