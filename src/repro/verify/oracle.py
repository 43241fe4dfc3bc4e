"""Brute-force allocation oracle and differential optimality checks.

The paper's central algorithmic claim is that the deadline-ordered dynamic
program ``B[S, m]`` (Section 3.3) is *profit-optimal* under the cache
capacity. For small instances that claim is machine-checkable by
exhaustive enumeration: :func:`exhaustive_allocate` tries every subset of
the competing intermediate results and keeps the best feasible one, giving
an independent optimum the DP must match exactly.

On instances too large to enumerate, optimality degrades to *dominance*:
the DP's profit must be at least every polynomial baseline's (greedy,
random, all-eDRAM) and at most the capacity-oblivious oracle's upper
bound. :func:`differential_check` runs both modes and returns a structured
:class:`DifferentialReport`; :func:`view_differentials` runs it on the
instance a compiled plan solved, on every machine view of
:func:`machine_variants` (healthy, degraded, shards).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.core.allocation import (
    ALLOCATORS,
    AllocationProblem,
    AllocationResult,
    _finalize,
    dp_allocate,
)
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.core.retiming import analyze_edges
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig

#: Minimum numpy release the oracle's subset matrix is tested against.
#: (``numpy >= 1.22`` is the floor pinned in ``pyproject.toml``: it is
#: the first release with stable typed ``np.int64`` matmul promotion on
#: every platform the CI matrix covers.)
NUMPY_FLOOR = (1, 22)


def require_numpy_floor(module_name: str):
    """Import numpy and assert :data:`NUMPY_FLOOR` with a clear error.

    Called when this module loads, so a too-old numpy fails loudly at the
    module boundary instead of deep inside an array expression with a
    confusing ``TypeError``. The oracle is the package's only numpy user:
    compiling, simulating and serving never import it.
    """
    try:
        import numpy as np
    except ImportError as exc:  # pragma: no cover - environment guard
        raise ImportError(
            f"{module_name} requires numpy >= "
            f"{'.'.join(map(str, NUMPY_FLOOR))}; numpy is not installed"
        ) from exc
    match = re.match(r"(\d+)\.(\d+)", np.__version__)
    if match and tuple(map(int, match.groups())) < NUMPY_FLOOR:
        raise ImportError(
            f"{module_name} requires numpy >= "
            f"{'.'.join(map(str, NUMPY_FLOOR))} (the oracle enumerates "
            f"subsets as numpy bit matrices), found {np.__version__}; "
            f"upgrade numpy"
        )
    return np


np = require_numpy_floor(__name__)

EdgeKey = Tuple[int, int]

#: Largest item count enumerated exhaustively (2^n subsets).
DEFAULT_EXHAUSTIVE_LIMIT = 16

#: Ceiling on any enumeration limit. Enumeration holds a ``(2^n, n)``
#: uint64 bit matrix, ``2^n * n * 8`` bytes: 168 MB at 20 items, 3.2 GB
#: at 24.
MAX_EXHAUSTIVE_LIMIT = 20

#: Registry entries that are per-run factories needing the task graph
#: (``ALLOCATORS[name](graph, timings)(problem)``) rather than plain
#: ``problem -> result`` functions.  Differential checks on a bare
#: :class:`AllocationProblem` cannot invoke them and skip them.
GRAPH_COUPLED_METHODS = frozenset({"iterative"})


class OracleSizeError(ValueError):
    """Raised when an instance is too large for exhaustive enumeration."""


class ProfitTable:
    """The space and profit columns of one allocation instance.

    Attributes:
        keys: item edge keys, in the problem's deadline order.
        slots: ``int64`` array of space requirements ``sp_m``.
        delta_r: ``int64`` array of profits ``ΔR(m)``.
    """

    __slots__ = ("keys", "slots", "delta_r")

    def __init__(self, items) -> None:
        self.keys: List[EdgeKey] = [item.key for item in items]
        self.slots = np.asarray([item.slots for item in items], dtype=np.int64)
        self.delta_r = np.asarray(
            [item.delta_r for item in items], dtype=np.int64
        )

    @classmethod
    def of(cls, problem: AllocationProblem) -> "ProfitTable":
        """The table of ``problem``'s competing items."""
        return cls(problem.items)

    def score_masks(self, masks):
        """Batch-score candidates: ``(profits, slots)`` ``int64`` arrays.

        ``masks`` is a ``(k, n)`` boolean (or 0/1) matrix, one row per
        candidate subset; scoring is two matrix-vector products.
        """
        matrix = np.asarray(masks)
        if matrix.ndim != 2 or matrix.shape[1] != len(self.keys):
            raise ValueError(
                f"masks must be (k, {len(self.keys)}), got {matrix.shape}"
            )
        weights = matrix.astype(np.int64, copy=False)
        return weights @ self.delta_r, weights @ self.slots

    def result_from_mask(
        self, method: str, problem: AllocationProblem, mask
    ) -> AllocationResult:
        """Build an :class:`AllocationResult` from a boolean member mask
        over ``problem``'s items, through the allocators' own
        :func:`repro.core.allocation._finalize`."""
        chosen = np.asarray(mask, dtype=bool)
        if chosen.shape != (len(self.keys),):
            raise ValueError(
                f"mask must have shape ({len(self.keys)},), "
                f"got {chosen.shape}"
            )
        return _finalize(
            method,
            problem,
            [item for item, keep in zip(problem.items, chosen.tolist()) if keep],
        )


def exhaustive_allocate(
    problem: AllocationProblem,
    limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
) -> AllocationResult:
    """Optimal allocation by enumerating every subset of competing results.

    Ground truth for :func:`repro.core.allocation.dp_allocate`: among all
    subsets whose total space fits the capacity, return one maximizing the
    profit ``sum of DR(m)``. Ties prefer fewer slots, then the greatest
    sorted key tuple, making the outcome deterministic.

    Every subset is one row of a ``(2^n, n)`` bit matrix; profits and
    slot totals fall out of two matrix products on the
    :class:`ProfitTable` columns. Its verdicts on the
    enumerable instances of every paper benchmark's machine views are
    pinned by ``tests/golden/oracle_verdicts.json``.

    Raises :class:`OracleSizeError` beyond ``limit`` items — the caller
    should fall back to dominance checking — and for a ``limit`` above
    :data:`MAX_EXHAUSTIVE_LIMIT`.
    """
    if limit > MAX_EXHAUSTIVE_LIMIT:
        raise OracleSizeError(
            f"exhaustive limit {limit} exceeds the ceiling "
            f"{MAX_EXHAUSTIVE_LIMIT} (2^{limit} subsets); choose 1.."
            f"{MAX_EXHAUSTIVE_LIMIT}"
        )
    problem.validate()
    n = problem.num_items
    if n > limit:
        raise OracleSizeError(
            f"{n} competing results exceed the exhaustive limit {limit} "
            f"(2^{n} subsets)"
        )
    table = ProfitTable.of(problem)
    capacity = problem.capacity_slots
    if n == 0:
        return table.result_from_mask(
            "exhaustive", problem, np.zeros(0, dtype=bool)
        )
    subsets = np.arange(1 << n, dtype=np.uint64)
    bits = (subsets[:, None] >> np.arange(n, dtype=np.uint64)) & 1
    profits, slots = table.score_masks(bits)
    feasible = slots <= capacity  # row 0 (the empty set) always qualifies
    best_profit = int(profits[feasible].max())
    candidates = feasible & (profits == best_profit)
    min_slots = int(slots[candidates].min())
    candidates &= slots == min_slots
    indices = np.flatnonzero(candidates)
    if len(indices) == 1:
        winner = int(indices[0])
    else:
        # Full (profit, slots) tie: the greatest sorted key tuple wins
        # among the tied rows (typically a handful).
        def sorted_keys(row: int):
            mask = int(subsets[row])
            return tuple(sorted(
                table.keys[i] for i in range(n) if mask >> i & 1
            ))

        winner = max((int(row) for row in indices), key=sorted_keys)
    return table.result_from_mask(
        "exhaustive", problem, bits[winner].astype(bool)
    )


@dataclass
class DifferentialReport:
    """Outcome of differentially verifying one allocation instance.

    Attributes:
        num_items: competing intermediate results in the instance.
        capacity_slots: the knapsack capacity.
        profits: achieved profit per method (always includes ``dp``; the
            ``exhaustive`` entry is present when the instance was small
            enough to enumerate).
        exhaustive_checked: whether the DP was held to the brute-force
            optimum (as opposed to dominance only).
        failures: human-readable description of every broken relation.
    """

    num_items: int
    capacity_slots: int
    profits: Dict[str, int] = field(default_factory=dict)
    exhaustive_checked: bool = False
    failures: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures

    def as_dict(self) -> Dict[str, object]:
        return {
            "num_items": self.num_items,
            "capacity_slots": self.capacity_slots,
            "profits": dict(self.profits),
            "exhaustive_checked": self.exhaustive_checked,
            "ok": self.ok,
            "failures": list(self.failures),
        }


def differential_check(
    problem: AllocationProblem,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    methods: Optional[List[str]] = None,
) -> DifferentialReport:
    """Differentially verify the DP allocator on one instance.

    * ``dp`` must be capacity-feasible;
    * on instances with at most ``exhaustive_limit`` competing results,
      ``dp``'s profit must equal the brute-force optimum exactly;
    * ``dp`` must dominate every capacity-aware baseline and never exceed
      the capacity-oblivious upper bound.
    """
    report = DifferentialReport(
        num_items=problem.num_items, capacity_slots=problem.capacity_slots
    )
    names = (
        methods
        if methods is not None
        else sorted(set(ALLOCATORS) - GRAPH_COUPLED_METHODS)
    )
    results: Dict[str, AllocationResult] = {}
    for name in names:
        results[name] = ALLOCATORS[name](problem)
        report.profits[name] = results[name].total_delta_r
    dp = results.get("dp") or dp_allocate(problem)
    report.profits.setdefault("dp", dp.total_delta_r)

    if dp.slots_used > problem.capacity_slots:
        report.failures.append(
            f"dp is capacity-infeasible: {dp.slots_used} slots used against "
            f"{problem.capacity_slots}"
        )

    if problem.num_items <= exhaustive_limit:
        exhaustive = exhaustive_allocate(problem, limit=exhaustive_limit)
        report.profits["exhaustive"] = exhaustive.total_delta_r
        report.exhaustive_checked = True
        if dp.total_delta_r != exhaustive.total_delta_r:
            report.failures.append(
                f"dp profit {dp.total_delta_r} != brute-force optimum "
                f"{exhaustive.total_delta_r} "
                f"(n={problem.num_items}, S={problem.capacity_slots})"
            )

    for name, result in results.items():
        if name == "dp":
            continue
        if name == "oracle":
            if dp.total_delta_r > result.total_delta_r:
                report.failures.append(
                    f"dp profit {dp.total_delta_r} exceeds the capacity-"
                    f"oblivious upper bound {result.total_delta_r}"
                )
        elif result.total_delta_r > dp.total_delta_r:
            report.failures.append(
                f"dp profit {dp.total_delta_r} dominated by {name!r} "
                f"({result.total_delta_r})"
            )
    return report


def machine_variants(
    config: PimConfig, shards: int = 2
) -> List[Tuple[str, PimConfig]]:
    """The machine views the DP is held to the oracle on.

    ``healthy`` is the config itself; ``degraded`` drops the highest-id PE
    (the canonical single-fault view); ``shard-i`` are the contiguous
    :meth:`~repro.pim.config.PimConfig.split` partitions. Degenerate
    machines (a single PE cannot lose one, nor be split) contribute only
    the views that exist.
    """
    variants: List[Tuple[str, PimConfig]] = [("healthy", config)]
    if config.num_pes > 1:
        variants.append(
            ("degraded", config.degraded(list(range(config.num_pes - 1))))
        )
    if config.num_pes >= shards:
        for index, shard in enumerate(config.split(shards)):
            variants.append((f"shard-{index}", shard))
    return variants


def allocation_instance(
    graph: TaskGraph,
    config: PimConfig,
    plan: Optional[ParaConvResult] = None,
) -> Tuple[AllocationProblem, int]:
    """The allocation instance the DP plan of ``graph`` solved.

    The instance the oracle checks is the one the *pipeline* actually
    solved (same kernel, same per-group capacity), not a synthetic
    stand-in. ``plan`` is that DP plan when the caller already compiled
    it on ``config``. Returns ``(problem, group_width)``.
    """
    if plan is None:
        plan = ParaConv(config, validate=False).run(graph)
    timings = analyze_edges(graph, plan.schedule.kernel, config)
    capacity = config.total_cache_slots // plan.num_groups
    return AllocationProblem.from_timings(timings, capacity), plan.group_width


def view_differentials(
    graph: TaskGraph,
    config: PimConfig,
    exhaustive_limit: int = DEFAULT_EXHAUSTIVE_LIMIT,
    plans: Optional[Mapping[str, ParaConvResult]] = None,
) -> Dict[str, DifferentialReport]:
    """:func:`differential_check` on every view of :func:`machine_variants`.

    ``plans`` maps a view label to the DP plan the caller already
    compiled on that view; every other view compiles its own.
    """
    plans = plans or {}
    return {
        label: differential_check(
            allocation_instance(graph, view, plans.get(label))[0],
            exhaustive_limit=exhaustive_limit,
        )
        for label, view in machine_variants(config)
    }
