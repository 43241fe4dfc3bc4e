"""The explicit state that flows through the compile pipeline.

:class:`CompileContext` replaces the local variables of the old monolithic
``ParaConv.run_at_width`` with a named, contract-checked artifact store:

* **inputs** (graph, machine, group width) are fixed at construction;
* **artifacts** (kernel, edge timings, allocation, retiming, schedule) are
  write-once key/value entries produced by passes — overwriting one
  requires the producing pass to declare it in its ``replaces`` contract,
  which is how the :class:`~repro.compiler.manager.PassManager` enforces
  immutability *between* passes;
* **shared** holds width-invariant precomputation (ASAP levels, total
  work, the kernel packing order, the per-edge prices laid out in the
  graph's index space), shared across forked contexts. Each entry reads
  through to the graph's facts (:meth:`TaskGraph.derived`), which are
  built once per graph, not once per compile. The kernel stage's facts
  are kept the same way, once per graph, packing order and width
  (:class:`KernelRecord`): the kernel, and for the graph's own edge table
  the kernel-stage floor and the edge timings.

Forking (:meth:`CompileContext.fork_for_width`) is how one validated graph
feeds many candidate widths — or, in the ablation harness, how one edge
analysis feeds many allocators — without re-running upstream passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import (
    TYPE_CHECKING, Any, Callable, Dict, Hashable, List, Optional, Tuple,
    TypeVar,
)

from repro.compiler.errors import ArtifactError
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.retiming import EdgeTable
    from repro.core.schedule import KernelSchedule

T = TypeVar("T")

#: Canonical artifact names produced by the standard pipeline, in order of
#: first appearance. Kept as one tuple so tests and docs have a single
#: source of truth.
ARTIFACTS = (
    "graph-valid",
    "kernel",
    "timings",
    "problem",
    "resolved-allocator",
    "allocation",
    "retiming",
    "schedule",
    "schedule-valid",
)


@dataclass
class KernelRecord:
    """The kernel stage's facts at one packing order and group width of a
    graph, kept with its index (:meth:`CompileContext.shared_kernel`).

    Attributes:
        kernel: the validated compacted kernel. Its columns are read-only:
            every compile of the graph reads this one object.
        derived: what is computed from the kernel and the graph's own edge
            table (:meth:`CompileContext.kernel_derived`), by name and the
            table's :func:`~repro.core.retiming.unit_constants`.
    """

    kernel: "KernelSchedule"
    derived: Dict[Hashable, Any] = field(default_factory=dict)


@dataclass
class CompileContext:
    """One compilation's inputs, shared precomputation and artifacts.

    Args:
        graph: the workload under compilation.
        config: machine description.
        width: PE-group width this context compiles for; ``None`` for the
            width-invariant base context the search forks from.
    """

    graph: TaskGraph
    config: PimConfig
    width: Optional[int] = None
    #: width-invariant precomputation, *shared across forks* (same dict).
    shared: Dict[str, Any] = field(default_factory=dict)
    _artifacts: Dict[str, Any] = field(default_factory=dict)
    #: names overwritten via :meth:`replace` since construction/fork —
    #: inspected by the manager to enforce per-pass ``replaces`` contracts.
    _replaced_log: List[str] = field(default_factory=list)
    #: whether :meth:`shared_kernel` found this width's kernel kept with
    #: the graph instead of building it.
    kernel_reused: bool = False

    # ------------------------------------------------------------------
    # derived machine facts
    # ------------------------------------------------------------------
    @property
    def num_groups(self) -> int:
        """Concurrent PE groups at this context's width."""
        if self.width is None:
            raise ArtifactError("base context has no group width")
        return max(1, self.config.num_pes // self.width)

    @property
    def capacity_slots(self) -> int:
        """Per-group share of the aggregate cache (DP capacity ``S``)."""
        return self.config.total_cache_slots // self.num_groups

    # ------------------------------------------------------------------
    # artifact store (write-once unless explicitly replaced)
    # ------------------------------------------------------------------
    def has(self, name: str) -> bool:
        return name in self._artifacts

    def get(self, name: str) -> Any:
        try:
            return self._artifacts[name]
        except KeyError:
            raise ArtifactError(
                f"artifact {name!r} read before any pass produced it "
                f"(available: {sorted(self._artifacts)})"
            ) from None

    def put(self, name: str, value: Any) -> None:
        """Write-once insert; a second write is a pipeline bug."""
        if name in self._artifacts:
            raise ArtifactError(
                f"artifact {name!r} already exists; passes may only "
                f"overwrite artifacts declared in their 'replaces' contract "
                f"(use CompileContext.replace)"
            )
        self._artifacts[name] = value

    def replace(self, name: str, value: Any) -> None:
        """Deliberate overwrite, recorded for contract enforcement."""
        if name not in self._artifacts:
            raise ArtifactError(
                f"artifact {name!r} cannot be replaced before it exists"
            )
        self._artifacts[name] = value
        self._replaced_log.append(name)

    def artifact_names(self) -> List[str]:
        return sorted(self._artifacts)

    def drain_replaced_log(self) -> List[str]:
        """Return and clear the replacement log (manager bookkeeping)."""
        log, self._replaced_log = self._replaced_log, []
        return log

    # ------------------------------------------------------------------
    # forking
    # ------------------------------------------------------------------
    def fork_for_width(self, width: int) -> "CompileContext":
        """Child context for one candidate width.

        Shallow-copies the artifact map (upstream artifacts are treated as
        immutable by contract) and *shares* the width-invariant ``shared``
        dict, so per-graph precomputation is paid once per search.
        """
        return CompileContext(
            graph=self.graph,
            config=self.config,
            width=width,
            shared=self.shared,
            _artifacts=dict(self._artifacts),
        )

    def fork(self) -> "CompileContext":
        """Same-width child (e.g. one per allocator in the ablation)."""
        if self.width is None:
            raise ArtifactError("cannot same-width fork a base context")
        return self.fork_for_width(self.width)

    # ------------------------------------------------------------------
    # shared precomputation helpers
    # ------------------------------------------------------------------
    # Each reads through to the graph's facts (TaskGraph.derived), built
    # once per graph index, and keeps what it read in ``shared`` for the
    # rest of the compile; a value put in ``shared`` first wins.
    def shared_total_work(self) -> int:
        if "total_work" not in self.shared:
            self.shared["total_work"] = self.graph.derived(
                "total_work", self.graph.total_work
            )
        return self.shared["total_work"]

    def shared_max_execution_time(self) -> int:
        if "max_execution_time" not in self.shared:
            self.shared["max_execution_time"] = self.graph.derived(
                "max_execution_time", self.graph.max_execution_time
            )
        return self.shared["max_execution_time"]

    def shared_asap_levels(self) -> Dict[int, int]:
        if "asap_levels" not in self.shared:
            from repro.graph.analysis import asap_levels

            self.shared["asap_levels"] = self.graph.derived(
                "asap_levels", lambda: asap_levels(self.graph)
            )
        return self.shared["asap_levels"]

    def shared_packing_order(self, order: str) -> "Tuple[Tuple[int, int], ...]":
        """The kernel packing order ``order`` of the graph (see
        :func:`repro.core.scheduler.packing_order`)."""
        key = f"packing_order:{order}"
        if key not in self.shared:
            from repro.core.scheduler import packing_order

            levels = (
                self.shared_asap_levels() if order == "topological" else None
            )
            self.shared[key] = self.graph.derived(
                key, lambda: packing_order(self.graph, order, levels)
            )
        return self.shared[key]

    def shared_edge_table(self) -> "EdgeTable":
        """Every edge's raw transfer times and slot counts in the graph's
        index space (see :func:`repro.core.retiming.graph_edge_table`)."""
        if "edge_table" not in self.shared:
            from repro.core.retiming import graph_edge_table

            self.shared["edge_table"] = graph_edge_table(
                self.graph, self.config
            )
        return self.shared["edge_table"]

    # ------------------------------------------------------------------
    # kernel-stage facts, kept once per graph, packing order and width
    # ------------------------------------------------------------------
    def shared_kernel(self, order: str) -> "KernelSchedule":
        """The compacted kernel of the graph at this context's width,
        packed in ``order``.

        :func:`~repro.core.scheduler.compact_kernel_schedule`, then
        :func:`~repro.core.schedule.validate_kernel`, run once per graph
        index, order and width; the :class:`KernelRecord` is kept with the
        index, so every compile of the graph, at any PE count, reuses it
        (:attr:`kernel_reused`). The kernel's columns are read-only:
        :func:`~repro.core.retiming.emit_schedule` gives a plan its own
        copies.
        """
        width = self.width
        packing = self.shared_packing_order(order)
        built: List["KernelSchedule"] = []

        def build() -> KernelRecord:
            from repro.core.schedule import validate_kernel
            from repro.core.scheduler import compact_kernel_schedule

            kernel = compact_kernel_schedule(
                self.graph, width, order=order, packing=packing
            )
            validate_kernel(self.graph, kernel, width)
            built.append(kernel)
            return KernelRecord(kernel)

        record = self.graph.derived(("kernel", order, width), build)
        self.kernel_reused = not built
        self.shared[("kernel_record", width)] = record
        return record.kernel

    def kernel_derived(self, name: str, build: Callable[[], T]) -> T:
        """``build()``, a value of this context's kernel and edge table,
        kept in the kernel's :class:`KernelRecord` under ``name`` and the
        table's unit constants.

        Only a kernel :meth:`shared_kernel` returned has a record, and only
        the graph's own table (:func:`~repro.core.retiming.graph_edge_table`)
        is named by its constants: with any other kernel, or with a table
        put into :attr:`shared` by hand, ``build()`` runs on every call.
        """
        from repro.core.retiming import graph_edge_table, unit_constants

        record = self.shared.get(("kernel_record", self.width))
        if (
            record is None
            or record.kernel is not self.get("kernel")
            or self.shared_edge_table()
            is not graph_edge_table(self.graph, self.config)
        ):
            return build()
        key = (name, *unit_constants(self.config))
        try:
            return record.derived[key]
        except KeyError:
            value = record.derived[key] = build()
            return value
