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
  work, the per-edge price table) that the width search hoists out of the
  per-width loop and shares across forked contexts.

Forking (:meth:`CompileContext.fork_for_width`) is how one validated graph
feeds many candidate widths — or, in the ablation harness, how one edge
analysis feeds many allocators — without re-running upstream passes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple

from repro.compiler.errors import ArtifactError
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.retiming import EdgePrice

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
    def shared_total_work(self) -> int:
        if "total_work" not in self.shared:
            self.shared["total_work"] = self.graph.total_work()
        return self.shared["total_work"]

    def shared_max_execution_time(self) -> int:
        if "max_execution_time" not in self.shared:
            self.shared["max_execution_time"] = self.graph.max_execution_time()
        return self.shared["max_execution_time"]

    def shared_asap_levels(self) -> Dict[int, int]:
        if "asap_levels" not in self.shared:
            from repro.graph.analysis import asap_levels

            self.shared["asap_levels"] = asap_levels(self.graph)
        return self.shared["asap_levels"]

    def shared_edge_prices(self) -> "Tuple[EdgePrice, ...]":
        """Raw transfer times and slot counts of every edge (see
        :func:`repro.core.retiming.price_edges`)."""
        if "edge_prices" not in self.shared:
            from repro.core.retiming import price_edges

            self.shared["edge_prices"] = price_edges(self.graph, self.config)
        return self.shared["edge_prices"]
