"""Optimal data allocation for convolutional connections (paper Section 3.3).

The problem: given the analyzed intermediate results (each with a cache
space requirement ``sp_m`` and a retiming-value reduction ``ΔR(m)`` earned
by caching it) and the aggregate on-chip cache capacity ``S``, choose the
subset to cache that maximizes the total profit ``Σ ΔR``.

Following the paper:

1. intermediate results are sorted by deadline ``d_m`` (``O(n log n)``
   precomputation, Section 3.3.1);
2. results with ``ΔR(m) = 0`` (cases 1, 4, 6) cannot shorten the prologue
   and are sent to eDRAM up front, leaving the cache to the competing
   results of cases 2, 3 and 5 (Section 3.2);
3. the recursive formulation ``B[S, m]`` (Section 3.3.2) is evaluated
   bottom-up -- a 0/1-knapsack table over (cache slots x results) -- and
   the optimal subset is reconstructed from it (Section 3.3.3).

Ablation allocators (greedy, random, all-eDRAM, capacity-oblivious oracle)
share the same interface so experiments can swap them in.

The problem works on edge rows (:class:`EdgeRows`):
:meth:`AllocationProblem.from_timings` reads the analysis' row columns and
keeps only the competing rows as items, so an allocator costs in the
results that compete for cache, not in every edge. The
``indifferent`` keys are derived from the rows when something reads them.
Every allocator ends in :func:`_finalize`, which writes ``placements`` as
one row column (every row in eDRAM but the cached ones), a mutable mapping
keyed by edge key like the schedule's.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import compress
from operator import attrgetter, gt, not_
from typing import (
    Any, Callable, Dict, List, Mapping, MutableMapping, NamedTuple, Optional, Sequence, Tuple,
)

from repro.core.retiming import EdgeTiming, EdgeTimings, RetimingError
from repro.graph.taskgraph import ColumnView
from repro.pim.memory import Placement

EdgeKey = Tuple[int, int]


class AllocationError(RetimingError):
    """A malformed allocation instance reached an allocator entry point.

    Subclasses :class:`RetimingError` so existing callers that guard the
    analysis pipeline with ``except RetimingError`` keep working.
    """


class UnknownAllocatorError(AllocationError, ValueError):
    """An allocator spec named no registered allocator.

    Carries the offending ``spec`` and the sorted registry ``choices`` so
    CLIs and error paths can enumerate what *would* have worked; also a
    :class:`ValueError`, so callers that guarded the old bare-``ValueError``
    paths keep working.
    """

    def __init__(self, spec: str):
        self.spec = spec
        self.choices = sorted(ALLOCATORS)
        super().__init__(
            f"unknown allocator {spec!r}; registered: "
            f"{', '.join(self.choices)}"
        )


class AllocatorFactory:
    """Explicit marker for allocators that need per-run construction.

    Most allocators are plain callables ``problem -> AllocationResult``.
    Some (the critical-path-aware iterative extension) additionally need
    the graph topology and the Section 3.2 edge analysis, which only exist
    *inside* a pipeline run. Those register as factories: either

    * a **class** subclassing :class:`AllocatorFactory` whose constructor
      is ``(graph, timings)`` and whose instances are the allocator, or
    * an **instance** of an :class:`AllocatorFactory` subclass overriding
      :meth:`build`.

    The pipeline resolves both shapes through :func:`resolve_allocator`.
    This replaces the old ``isinstance(allocator, type)`` heuristic, which
    treated *every* class as a ``(graph, timings)`` factory and therefore
    silently miscalled allocator classes with other constructor shapes.
    """

    def build(
        self,
        graph: Any,
        timings: Mapping[EdgeKey, EdgeTiming],
    ) -> "Allocator":
        """Construct the per-run allocator; default rebinds the class."""
        return type(self)(graph, timings)  # type: ignore[call-arg]


#: A cache-allocation strategy: AllocationProblem -> AllocationResult.
Allocator = Callable[["AllocationProblem"], "AllocationResult"]

def allocator_from_spec(spec: str) -> Any:
    """Resolve a registry name to its registry entry.

    Raises :class:`UnknownAllocatorError`, enumerating the registry, for
    names it does not hold -- mirroring the ``--allocator`` CLI choices.
    """
    if not isinstance(spec, str):
        raise AllocationError(
            f"allocator spec must be a string, got {type(spec).__name__}"
        )
    if spec not in ALLOCATORS:
        raise UnknownAllocatorError(spec)
    return ALLOCATORS[spec]


def resolve_allocator(
    allocator: Any,
    graph: Any,
    timings: Mapping[EdgeKey, EdgeTiming],
) -> Allocator:
    """Resolve a registry entry / user-supplied allocator to a callable.

    * **registry name** (``"dp"``): looked up via
      :func:`allocator_from_spec`, then resolved like the entry it names;
      unknown names raise :class:`UnknownAllocatorError` enumerating the
      registry.
    * ``AllocatorFactory`` subclass (the class itself): instantiated as
      ``allocator(graph, timings)``.
    * ``AllocatorFactory`` instance: resolved via ``.build(graph, timings)``
      — so a factory instance is *rebound to the current run's graph*
      instead of being silently misused across graphs.
    * any other callable (function or callable-class *instance*): used
      directly, untouched.
    * any other *class*: rejected with a typed error instead of being
      guessed at (the old behavior called it with ``(graph, timings)``).
    """
    if isinstance(allocator, str):
        allocator = allocator_from_spec(allocator)
    if isinstance(allocator, type):
        if issubclass(allocator, AllocatorFactory):
            return allocator(graph, timings)  # type: ignore[call-arg]
        raise AllocationError(
            f"allocator class {allocator.__name__!r} is not an "
            f"AllocatorFactory; pass an instance, or subclass "
            f"AllocatorFactory to opt into per-run (graph, timings) "
            f"construction"
        )
    if isinstance(allocator, AllocatorFactory):
        return allocator.build(graph, timings)
    if not callable(allocator):
        raise AllocationError(
            f"allocator {allocator!r} is neither callable nor an "
            f"AllocatorFactory"
        )
    return allocator


class AllocationItem(NamedTuple):
    """One cache-competing intermediate result, in DP order.

    A named tuple, not a frozen dataclass: a compile builds thousands of
    items, and a tuple is built in half the time.

    Attributes:
        key: edge identifier ``(producer, consumer)``.
        slots: space requirement ``sp_m`` in cache slots.
        delta_r: profit ``ΔR(m)`` -- prologue iterations saved by caching.
        deadline: sort key ``d_m``.
    """

    key: EdgeKey
    slots: int
    delta_r: int
    deadline: int


class EdgeRows(NamedTuple):
    """The edge rows an allocation places, and which of them compete.

    Attributes:
        edge_keys: the edge key of each row.
        row_of: the row of each edge key.
        competing: by row, whether the edge competes for cache
            (``ΔR > 0``); the other rows are indifferent.
    """

    edge_keys: Sequence[EdgeKey]
    row_of: Mapping[EdgeKey, int]
    competing: Sequence[bool]

    def by_row(self, column: List) -> ColumnView:
        """``column`` (one entry per row) keyed by edge key."""
        return ColumnView(self.edge_keys, self.row_of, column)


class AllocationProblem:
    """A deadline-sorted instance of the Section 3.3 allocation problem.

    ``items`` are the competing results in DP order. ``rows`` are the edge
    rows every allocator places: :meth:`from_timings` passes the graph
    index's rows, so an allocation's ``placements`` is one row column of
    the graph's index. A hand-built problem passes its ``indifferent`` keys
    instead; its rows are then those keys followed by the item keys.
    """

    def __init__(
        self,
        items: List[AllocationItem],
        capacity_slots: int,
        indifferent: Sequence[EdgeKey] = (),
        rows: Optional[EdgeRows] = None,
    ):
        if rows is not None and indifferent:
            raise AllocationError(
                "pass the indifferent keys or the edge rows, not both"
            )
        self.items = items
        self.capacity_slots = capacity_slots
        self._indifferent = list(indifferent)
        self._rows = rows

    def __repr__(self) -> str:
        return (
            f"AllocationProblem(items={self.items!r}, "
            f"capacity_slots={self.capacity_slots!r}, "
            f"indifferent={self.indifferent!r})"
        )

    @classmethod
    def from_timings(
        cls,
        timings: EdgeTimings,
        capacity_slots: int,
    ) -> "AllocationProblem":
        """Build the DP instance from the Section 3.2 edge analysis,
        reading its columns. Only the competing rows (``delta_edram >
        delta_cache``) become items; the rest stay rows of the problem."""
        if capacity_slots < 0:
            raise AllocationError("capacity_slots must be >= 0")
        keys, slots, deadline = timings.edge_keys, timings.slots, timings.deadline
        d_cache, d_edram = timings.delta_cache, timings.delta_edram
        competing = list(map(gt, d_edram, d_cache))
        items = [
            AllocationItem(keys[row], slots[row], d_edram[row] - d_cache[row],
                           deadline[row])
            for row in compress(range(len(keys)), competing)
        ]
        # Section 3.3.1: schedule (and therefore index) in increasing order
        # of deadline; ties broken by key for determinism.
        items.sort(key=attrgetter("deadline", "key"))
        return cls(items, capacity_slots,
                   rows=EdgeRows(keys, timings.row_of, competing))

    @property
    def rows(self) -> EdgeRows:
        """The edge rows the allocation places (see the class docstring)."""
        if self._rows is not None:
            return self._rows
        keys = [*self._indifferent, *(item.key for item in self.items)]
        row_of: Dict[EdgeKey, int] = {}
        for row, key in enumerate(keys):
            row_of.setdefault(key, row)
        competing = [False] * len(self._indifferent) + [True] * len(self.items)
        return EdgeRows(keys, row_of, competing)

    @property
    def indifferent(self) -> List[EdgeKey]:
        """Edges excluded from the DP because ``ΔR = 0`` (placed in
        eDRAM): the non-competing rows, sorted, derived on each read."""
        if self._rows is None:
            return self._indifferent
        rows = self._rows
        return sorted(compress(rows.edge_keys, map(not_, rows.competing)))

    def validate(self) -> None:
        """Reject malformed instances with a typed error.

        Every allocator entry point calls this before doing any work, so a
        bad instance (hand-built, deserialized, or corrupted upstream)
        fails loudly instead of producing an infeasible or silently wrong
        allocation. Checks: non-negative integer capacity, strictly
        positive per-item slot demands, non-negative profits, no
        duplicate edge keys, and every item key a competing row (not
        indifferent, not missing), in O(items).
        """
        if not isinstance(self.capacity_slots, int):
            raise AllocationError(
                f"capacity_slots must be an int, got "
                f"{type(self.capacity_slots).__name__}"
            )
        if self.capacity_slots < 0:
            raise AllocationError(
                f"capacity_slots must be >= 0, got {self.capacity_slots}"
            )
        rows = self.rows
        row_of, competing = rows.row_of, rows.competing
        seen = set()
        overlap = []
        for item in self.items:
            if item.slots <= 0:
                raise AllocationError(
                    f"item {item.key}: slots must be >= 1, got {item.slots}"
                )
            if item.delta_r < 0:
                raise AllocationError(
                    f"item {item.key}: delta_r must be >= 0, "
                    f"got {item.delta_r}"
                )
            if item.key in seen:
                raise AllocationError(f"duplicate item key {item.key}")
            seen.add(item.key)
            row = row_of.get(item.key)
            if row is None:
                raise AllocationError(
                    f"item {item.key}: not an edge row of the problem"
                )
            if not competing[row]:
                overlap.append(item.key)
        if overlap:
            raise AllocationError(
                f"keys both competing and indifferent: {sorted(overlap)[:5]}"
            )

    @property
    def num_items(self) -> int:
        return len(self.items)

    def total_demand_slots(self) -> int:
        return sum(item.slots for item in self.items)


@dataclass
class AllocationResult:
    """Outcome of one allocation strategy.

    ``placements`` covers *every* edge row of the problem (competing and
    indifferent), one row column keyed by edge key
    (:meth:`EdgeRows.by_row`); ``cached`` lists the edges put in on-chip
    cache; ``total_delta_r`` is the achieved profit ``Σ ΔR`` over cached
    edges.
    """

    method: str
    placements: MutableMapping[EdgeKey, Placement]
    cached: List[EdgeKey]
    total_delta_r: int
    slots_used: int
    capacity_slots: int

    @property
    def num_cached(self) -> int:
        return len(self.cached)

    def cache_utilization(self) -> float:
        if self.capacity_slots == 0:
            return 0.0
        return self.slots_used / self.capacity_slots


def _finalize(
    method: str,
    problem: AllocationProblem,
    chosen: Sequence[AllocationItem],
) -> AllocationResult:
    """The :class:`AllocationResult` of caching ``chosen``: every row of
    the problem in eDRAM but the chosen items', ``cached`` in item order."""
    rows = problem.rows
    row_of = rows.row_of
    column = [Placement.EDRAM] * len(rows.edge_keys)
    chosen_keys = []
    profit = 0
    slots = 0
    chosen_set = {item.key for item in chosen}
    for item in problem.items:
        if item.key in chosen_set:
            column[row_of[item.key]] = Placement.CACHE
            chosen_keys.append(item.key)
            profit += item.delta_r
            slots += item.slots
    return AllocationResult(
        method=method,
        placements=rows.by_row(column),
        cached=chosen_keys,
        total_delta_r=profit,
        slots_used=slots,
        capacity_slots=problem.capacity_slots,
    )


def dp_allocate(problem: AllocationProblem) -> AllocationResult:
    """The paper's dynamic program ``B[S, m]`` (Sections 3.3.2-3.3.3).

    ``B[s, m]`` is the maximum total profit achievable with the first ``m``
    deadline-ordered results under capacity ``s``::

        B[s, 0] = 0
        B[s, m] = B[s, m-1]                       if sp_m > s
        B[s, m] = max(B[s, m-1],
                      B[s - sp_m, m-1] + ΔR(m))   otherwise

    Each entry takes O(1), so the table costs ``O(n * S)`` time and space;
    the optimal subset is reconstructed by walking the table backwards.
    The result is profit-optimal for the capacity (standard 0/1-knapsack
    optimality; the deadline order fixes tie-breaking as the paper
    prescribes).

    Each row ``B[., m]`` is one packed int: field ``s`` holds ``B[s, m]``
    in ``w`` bits, where ``w - 1`` bits fit the total profit and the top
    bit is a guard, so the whole row advances in a few big-int operations.
    The packing needs ``sp_m >= 1`` and ``ΔR(m) >= 0``, which
    :meth:`AllocationProblem.validate` guarantees.
    """
    problem.validate()
    capacity = problem.capacity_slots
    items = problem.items
    n = len(items)
    width = sum(item.delta_r for item in items).bit_length() + 1
    full = (1 << width * (capacity + 1)) - 1
    ones = full // ((1 << width) - 1)  # a 1 in the low bit of every field
    guard = ones << (width - 1)
    # rows[m] packs B[., m]; row 0 is all zeros.
    rows = [0] * (n + 1)
    row = 0
    for m, item in enumerate(items, start=1):
        if item.slots <= capacity:
            # taken[s] = B[s - sp, m-1] + ΔR for s >= sp, 0 below. No field
            # overflows: every entry stays <= the total profit.
            shift = width * item.slots
            taken = ((row + item.delta_r * ones) << shift) & full
            # The guard bit of a field survives the subtraction iff
            # B[s, m-1] >= taken[s]; widen it to a whole-field keep mask.
            keep = ((row | guard) - taken) & guard
            keep = (keep << 1) - (keep >> (width - 1))
            row = taken ^ ((row ^ taken) & keep)
        rows[m] = row

    # Reconstruction: item m was taken iff B[s, m] != B[s, m-1].
    field_mask = (1 << width) - 1
    chosen: List[AllocationItem] = []
    s = capacity
    for m in range(n, 0, -1):
        if ((rows[m] ^ rows[m - 1]) >> width * s) & field_mask:
            item = items[m - 1]
            chosen.append(item)
            s -= item.slots
    chosen.reverse()
    return _finalize("dp", problem, chosen)


def greedy_allocate(problem: AllocationProblem) -> AllocationResult:
    """Density-greedy baseline: cache by descending ``ΔR / sp`` while it fits."""
    problem.validate()
    order = sorted(
        problem.items,
        key=lambda item: (-item.delta_r / item.slots, item.slots, item.key),
    )
    chosen: List[AllocationItem] = []
    free = problem.capacity_slots
    for item in order:
        if item.slots <= free:
            chosen.append(item)
            free -= item.slots
    return _finalize("greedy", problem, chosen)


def random_allocate(problem: AllocationProblem, seed: int = 0) -> AllocationResult:
    """Random-order first-fit baseline (ablation floor)."""
    problem.validate()
    rng = random.Random(seed)
    order = list(problem.items)
    rng.shuffle(order)
    chosen: List[AllocationItem] = []
    free = problem.capacity_slots
    for item in order:
        if item.slots <= free:
            chosen.append(item)
            free -= item.slots
    return _finalize("random", problem, chosen)


def all_edram_allocate(problem: AllocationProblem) -> AllocationResult:
    """Everything in eDRAM: the no-cache floor."""
    problem.validate()
    return _finalize("all-edram", problem, [])


def oracle_allocate(problem: AllocationProblem) -> AllocationResult:
    """Capacity-oblivious oracle: every profitable result cached.

    Upper-bounds what any allocator can achieve; useful to measure how much
    of the headroom the DP captures under the real capacity.
    """
    problem.validate()
    return _finalize("oracle", problem, list(problem.items))


#: Registry used by the ablation experiments.
ALLOCATORS = {
    "dp": dp_allocate,
    "greedy": greedy_allocate,
    "random": random_allocate,
    "all-edram": all_edram_allocate,
    "oracle": oracle_allocate,
}
