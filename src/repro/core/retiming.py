"""Retiming of convolutional connections (paper Sections 2.3 and 3.2).

Retiming ``R`` maps each vertex to the number of its iterations re-allocated
into the prologue (Definition 3.1). After retiming, the dependency carried
by edge ``(i, j)`` crosses ``delta(i, j) = R(i) - R(j)`` iteration
boundaries; the data produced by instance ``l`` of ``V_i`` is consumed by
instance ``l + delta`` of ``V_j``.

Given the compacted kernel (period ``p``, per-op offsets) and the transfer
time ``c_ij`` of the intermediate result under a placement, the *required*
relative retiming is the smallest ``delta`` with::

    finish(i) + c_ij <= delta * p + start(j)

Because ``finish(i) <= p`` and ``c_ij <= p`` (Theorem 3.1's premise), the
requirement never exceeds 2 -- Theorem 3.1's bound. Evaluating it under the
cache and eDRAM placements yields the six cases of Figure 4 and the profit
``ΔR(m) = delta_edram - delta_cache`` the dynamic program maximizes.

Only the clamp to ``p`` and the offsets depend on the kernel. The raw
cache/eDRAM transfer times and slot counts of every edge depend on the
graph and the machine alone; :func:`price_edges` computes them and
:func:`edge_table` lays them out in the graph's content-only index space
(:meth:`~repro.graph.taskgraph.TaskGraph.index`). :func:`graph_prices`
and :func:`graph_edge_table` keep both with the index, once per graph and
price constants, so every compile and simulation of a graph reuses them.

The per-width passes work on columns in that index space:
:func:`analyze_edges` builds one :class:`EdgeTimings` column per
:class:`EdgeTiming` field by edge row, :func:`placed_deltas` one delta per
row from a placement row column, and :func:`solve_retiming`, one reverse
pass over the rows like :func:`repro.compiler.kernel_stage_floor`,
``R(i)`` by vertex and ``R(i, j)`` by row; :func:`emit_schedule` lays out
the schedule. :func:`required_retiming` states the delta formula the
columns compute inline.

The timings depend on the kernel and the edge table alone. The compiler
keeps them with the kernel, which it keeps with the graph, once per
packing order, width and :func:`unit_constants` of a ranked width, so a
later compile of the graph ranks that width without calling
:func:`analyze_edges`; their columns are read-only. :func:`emit_schedule`
gives the schedule its own copies of the kernel's columns.
"""

from __future__ import annotations

import math
from collections.abc import Mapping as MappingABC
from dataclasses import dataclass, field, replace
from itertools import compress, repeat
from operator import add, ge, is_, le, lt, sub
from typing import Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.schedule import KernelSchedule, PeriodicSchedule, require_layout
from repro.graph.taskgraph import ColumnView, GraphIndex, TaskGraph, column_of
from repro.pim.config import PimConfig
from repro.pim.memory import Placement


class RetimingError(ValueError):
    """Raised on illegal retimings or broken Theorem 3.1 premises."""


def required_retiming(finish: int, start: int, transfer: int, period: int) -> int:
    """Minimum relative retiming for one dependency.

    The reference for the per-edge delta formula, kept as public API:
    :func:`analyze_edges` (under both placements) and
    :func:`repro.compiler.kernel_stage_floor` (under the cache placement)
    compute it inline on whole columns of rows, and a property test holds
    every row they produce to this function.

    Args:
        finish: producer finish offset ``f_i`` within the kernel.
        start: consumer start offset ``s_j`` within the kernel.
        transfer: intermediate-result transfer time ``c_ij``.
        period: kernel period ``p``.

    Returns:
        ``delta = max(0, ceil((f_i + c_ij - s_j) / p))``.
    """
    if period <= 0:
        raise RetimingError("period must be positive")
    if transfer < 0:
        raise RetimingError("transfer time must be >= 0")
    gap = finish + transfer - start
    if gap <= 0:
        return 0
    return math.ceil(gap / period)


class EdgeTiming(NamedTuple):
    """Per-edge retiming analysis under both placements.

    One row of an :class:`EdgeTimings` table, built when a caller looks
    an edge up.

    Attributes:
        key: ``(producer, consumer)``.
        transfer_cache / transfer_edram: effective ``c_ij`` under each
            placement, already clamped to ``p`` (Theorem 3.1 premise: an
            access wider than the window spreads across it).
        delta_cache / delta_edram: required relative retiming under each
            placement (each in ``{0, 1, 2}``).
        slots: cache slots ``sp_m`` the result occupies if cached.
        deadline: the DP sort key ``d_{i,j}`` -- the consumer's start offset
            (the latest moment the data is still useful within an iteration).
    """

    key: Tuple[int, int]
    transfer_cache: int
    transfer_edram: int
    delta_cache: int
    delta_edram: int
    slots: int
    deadline: int

    @property
    def delta_r(self) -> int:
        """``ΔR(m)`` -- retiming-value reduction earned by caching."""
        return self.delta_edram - self.delta_cache

    def delta_for(self, placement: Placement) -> int:
        return (
            self.delta_cache if placement is Placement.CACHE else self.delta_edram
        )

    def transfer_for(self, placement: Placement) -> int:
        return (
            self.transfer_cache
            if placement is Placement.CACHE
            else self.transfer_edram
        )


class EdgePrice(NamedTuple):
    """Width-invariant price of one intermediate result on one machine.

    Attributes:
        key: ``(producer, consumer)``.
        producer / consumer: the edge's endpoints.
        cache_units / edram_units: raw transfer times under each
            placement, before the clamp to the kernel period.
        slots: cache slots ``sp_m`` the result occupies if cached.
        vault: the result's home eDRAM vault, ``hash(key) % num_vaults``
            (static address interleaving). Only the simulator reads it.
        service_units: time one access occupies the home vault, at least
            one unit: the vault moves ``cache_bytes_per_unit //
            edram_latency_factor`` bytes (at least one) per unit.
    """

    key: Tuple[int, int]
    producer: int
    consumer: int
    cache_units: int
    edram_units: int
    slots: int
    vault: int
    service_units: int


def price_edges(graph: TaskGraph, config: PimConfig) -> Tuple[EdgePrice, ...]:
    """Price every edge of ``graph`` on ``config``, in edge row order.

    The units are :meth:`~repro.pim.config.PimConfig.cache_transfer_units`,
    :meth:`~repro.pim.config.PimConfig.edram_transfer_units` and
    :meth:`~repro.pim.config.PimConfig.slots_required`, computed from the
    config constants once per edge (edge sizes are positive by
    construction, so the methods' argument checks cannot fire). The
    ``vault`` column interleaves over :attr:`PimConfig.num_vaults`, so a
    vault-masked config homes every result on one of its survivors.
    """
    per_unit = config.cache_bytes_per_unit
    edram_factor = config.edram_latency_factor
    slot_bytes = config.cache_slot_bytes
    num_vaults = config.num_vaults
    vault_bytes = max(1, per_unit // edram_factor)
    prices = []
    for key in graph.index().edge_keys:
        size = graph.edge(*key).size_bytes
        edram_units = size * edram_factor // per_unit
        slots = -(-size // slot_bytes)
        service = size // vault_bytes
        prices.append(
            EdgePrice(
                key,
                key[0],
                key[1],
                size // per_unit,
                edram_units if edram_units > 1 else 1,
                slots if slots > 1 else 1,
                hash(key) % num_vaults,
                service if service > 1 else 1,
            )
        )
    return tuple(prices)


def graph_prices(graph: TaskGraph, config: PimConfig) -> Tuple[EdgePrice, ...]:
    """:func:`price_edges` of ``graph`` on ``config``, built once per
    graph index and kept with it (:meth:`TaskGraph.derived`), keyed by
    the constants the prices read."""
    key = ("edge_prices", *unit_constants(config), config.num_vaults)
    return graph.derived(key, lambda: price_edges(graph, config))


def graph_edge_table(graph: TaskGraph, config: PimConfig) -> "EdgeTable":
    """:func:`edge_table` of ``graph`` on ``config``, kept with the
    graph's index like :func:`graph_prices`. The table has no vault
    column, so its key leaves out ``num_vaults``; it keeps only the
    columns the compiler reads, not the prices it is built from."""
    return graph.derived(
        ("edge_table", *unit_constants(config)),
        lambda: edge_table(graph, price_edges(graph, config)),
    )


def unit_constants(config: PimConfig) -> Tuple[int, int, int]:
    """The config constants every price column but ``vault`` reads: with
    the graph, they fix :func:`graph_edge_table`."""
    return (
        config.cache_bytes_per_unit,
        config.edram_latency_factor,
        config.cache_slot_bytes,
    )


class EdgeTable(NamedTuple):
    """A graph's priced edges in its index space, for the per-width passes.

    Vertices and rows are those of the graph's
    :class:`~repro.graph.taskgraph.GraphIndex`: rows sorted by producer
    vertex, then consumer vertex, so a longest-path DP in either
    direction is one flat loop over the rows.

    Attributes:
        index: the graph's index.
        rows: one ``(producer, consumer, cache_units, edram_units,
            producer_execution_time)`` tuple per edge row, endpoints as
            vertices and units as in :class:`EdgePrice`.
        slots: the cache slots ``sp_m`` of each row.
        max_cache_units: the largest ``cache_units`` of any row (0 when
            the graph has no edge).
        cache_units / edram_units: the two unit columns of ``rows``.
        max_edram_units: the largest ``edram_units`` of any row.
    """

    index: GraphIndex
    rows: Tuple[Tuple[int, int, int, int, int], ...]
    slots: Tuple[int, ...]
    max_cache_units: int
    cache_units: Tuple[int, ...]
    edram_units: Tuple[int, ...]
    max_edram_units: int


def edge_table(graph: TaskGraph, prices: Sequence[EdgePrice]) -> EdgeTable:
    """Build the :class:`EdgeTable` of ``graph`` from its
    :func:`price_edges` table (one price per edge row, in row order)."""
    index = graph.index()
    if tuple(price.key for price in prices) != index.edge_keys:
        raise RetimingError(
            "edge prices must hold one price per edge row, in row order"
        )
    execution_times = index.execution_times
    cache_units = tuple(price.cache_units for price in prices)
    edram_units = tuple(price.edram_units for price in prices)
    rows = tuple(
        zip(
            index.producers,
            index.consumers,
            cache_units,
            edram_units,
            map(execution_times.__getitem__, index.producers),
        )
    )
    return EdgeTable(
        index,
        rows,
        tuple(price.slots for price in prices),
        max(cache_units, default=0),
        cache_units,
        edram_units,
        max(edram_units, default=0),
    )


@dataclass
class EdgeTimings(MappingABC):
    """The Section 3.2 analysis of every edge: one column per
    :class:`EdgeTiming` field, by edge row.

    The allocation problem and the schedule read the columns. As a
    read-only mapping from edge key to :class:`EdgeTiming` it serves the
    callers that look edges up one at a time; it iterates in row order.
    """

    edge_keys: Sequence[Tuple[int, int]]
    transfer_cache: Sequence[int]
    transfer_edram: Sequence[int]
    delta_cache: Sequence[int]
    delta_edram: Sequence[int]
    slots: Sequence[int]
    deadline: Sequence[int]
    #: row of each edge key.
    row_of: Mapping[Tuple[int, int], int] = field(repr=False, compare=False)

    def __getitem__(self, key: Tuple[int, int]) -> EdgeTiming:
        row = self.row_of[key]
        return EdgeTiming(
            key, self.transfer_cache[row], self.transfer_edram[row],
            self.delta_cache[row], self.delta_edram[row], self.slots[row],
            self.deadline[row],
        )

    def __iter__(self):
        return iter(self.edge_keys)

    def __len__(self) -> int:
        return len(self.edge_keys)


def analyze_edges(
    graph: TaskGraph,
    kernel: KernelSchedule,
    config: PimConfig,
    table: Optional[EdgeTable] = None,
) -> EdgeTimings:
    """Compute the :class:`EdgeTimings` of every intermediate result.

    This is the "analysis of extra data movement" of Section 3.2: it bounds
    how many extra prologue iterations each placement choice costs.
    ``table`` may carry :func:`edge_table` of the same graph and machine;
    when omitted it is :func:`graph_edge_table`.
    The kernel's columns must be laid out over the graph's index.

    Each column is built whole, row by row: each delta is
    :func:`required_retiming` of the row's producer finish, consumer
    start, clamped transfer and period, computed inline.
    """
    period = kernel.period
    if period <= 0:
        raise RetimingError("kernel period must be positive")
    if table is None:
        table = graph_edge_table(graph, config)
    index = table.index
    require_layout(kernel, index)
    deadline = list(map(kernel.start.__getitem__, index.consumers))
    gaps = list(map(sub, map(kernel.finish.__getitem__, index.producers), deadline))
    t_cache = _clamped(table.cache_units, table.max_cache_units, period)
    t_edram = _clamped(table.edram_units, table.max_edram_units, period)
    d_cache = _required(gaps, t_cache, period)
    d_edram = _required(gaps, t_edram, period)
    if any(map(lt, t_edram, t_cache)) or max(d_edram, default=0) > 2:
        for key, tc, te, dc, de in zip(
            index.edge_keys, t_cache, t_edram, d_cache, d_edram
        ):
            if te < tc:
                raise RetimingError(
                    f"edge {key}: eDRAM transfer faster than cache "
                    "(configuration inverts the memory hierarchy)"
                )
            if de > 2:
                raise RetimingError(
                    f"edge {key}: required retiming exceeds Theorem 3.1 "
                    f"bound (cache={dc}, eDRAM={de})"
                )
    return EdgeTimings(
        index.edge_keys, t_cache, t_edram, d_cache, d_edram, table.slots,
        deadline, index.row_of,
    )


def _clamped(units: Sequence[int], max_units: int, period: int) -> Sequence[int]:
    """``min(units, period)`` by row; ``units`` itself when none exceeds
    ``period``."""
    if max_units < period:
        return units
    return [unit if unit < period else period for unit in units]


def _required(gaps: Sequence[int], transfers: Sequence[int], period: int) -> List[int]:
    """:func:`required_retiming` of each row, from its ``finish - start``
    gap and its transfer: ``max(0, ceil((gap + t) / p))``."""
    return [
        -(-(gap + t) // period) if gap + t > 0 else 0
        for gap, t in zip(gaps, transfers)
    ]


@dataclass(frozen=True)
class DeltaRAccounting:
    """Aggregate ΔR mass of a graph, split by fused-dataflow provenance.

    Fused lowering changes *which* intermediate results exist, not how
    any single one is priced: a fused stage's internal IRs vanish from
    the graph (cache-resident by construction, zero allocator pressure)
    while its boundary IRs stay ordinary candidates. This accounting
    makes that shift measurable — the verify battery uses it to assert
    that every surviving candidate still prices normally, and the eval
    bench reports it as the fused-vs-unfused ΔR profile.

    Attributes:
        total_edges: intermediate results analyzed.
        candidate_edges: edges with ``ΔR > 0`` (worth caching at all).
        total_delta_r: ``Σ max(ΔR, 0)`` over every edge.
        fused_stages: vertices standing for more than one original op.
        fused_ops_absorbed: original ops folded away by fusion
            (``Σ (fused_count - 1)``); 0 on an unfused graph.
        fused_boundary_edges: edges touching at least one fused vertex.
        fused_boundary_delta_r: ``Σ max(ΔR, 0)`` over those edges.
    """

    total_edges: int
    candidate_edges: int
    total_delta_r: int
    fused_stages: int
    fused_ops_absorbed: int
    fused_boundary_edges: int
    fused_boundary_delta_r: int

    def as_dict(self) -> Dict[str, int]:
        return {
            "total_edges": self.total_edges,
            "candidate_edges": self.candidate_edges,
            "total_delta_r": self.total_delta_r,
            "fused_stages": self.fused_stages,
            "fused_ops_absorbed": self.fused_ops_absorbed,
            "fused_boundary_edges": self.fused_boundary_edges,
            "fused_boundary_delta_r": self.fused_boundary_delta_r,
        }


def delta_r_accounting(
    graph: TaskGraph, timings: Mapping[Tuple[int, int], EdgeTiming]
) -> DeltaRAccounting:
    """Fold per-edge :class:`EdgeTiming` into a :class:`DeltaRAccounting`."""
    fused_ids = {
        op.op_id for op in graph.operations() if op.fused_count > 1
    }
    total_delta = 0
    candidates = 0
    boundary_edges = 0
    boundary_delta = 0
    for key, timing in timings.items():
        gain = max(0, timing.delta_r)
        total_delta += gain
        if gain > 0:
            candidates += 1
        if key[0] in fused_ids or key[1] in fused_ids:
            boundary_edges += 1
            boundary_delta += gain
    return DeltaRAccounting(
        total_edges=len(timings),
        candidate_edges=candidates,
        total_delta_r=total_delta,
        fused_stages=len(fused_ids),
        fused_ops_absorbed=sum(
            op.fused_count - 1 for op in graph.operations()
        ),
        fused_boundary_edges=boundary_edges,
        fused_boundary_delta_r=boundary_delta,
    )


@dataclass
class RetimingSolution:
    """A legal vertex/edge retiming induced by per-edge requirements, in
    the graph's index space.

    Attributes:
        index: the graph's index.
        vertex_r: ``R(i)`` by vertex.
        edge_r: ``R(i, j)`` by edge row, chosen as ``R(j) + delta(i, j)``
            -- always inside the legal band ``[R(j), R(i)]``.
        deltas: the per-row requirements the solution satisfies.

    :attr:`vertex_retiming` and :attr:`edge_retiming` are the same columns
    keyed by op id and edge key.
    """

    index: GraphIndex = field(repr=False)
    vertex_r: List[int]
    edge_r: List[int]
    deltas: Sequence[int]

    @property
    def vertex_retiming(self) -> ColumnView:
        return self.index.by_vertex(self.vertex_r)

    @property
    def edge_retiming(self) -> ColumnView:
        return self.index.by_row(self.edge_r)

    @property
    def max_retiming(self) -> int:
        """``R_max`` -- the prologue length in iterations."""
        return max(self.vertex_r, default=0)

    def is_legal(self) -> bool:
        """Definition 3.1: ``R(i) >= R(i,j) >= R(j)`` and ``R >= 0``."""
        vertex = self.vertex_r
        return (
            min(vertex, default=0) >= 0
            and all(map(le, self.edge_r, map(vertex.__getitem__, self.index.producers)))
            and all(map(ge, self.edge_r, map(vertex.__getitem__, self.index.consumers)))
        )


def solve_retiming(graph: TaskGraph, deltas: Sequence[int]) -> RetimingSolution:
    """Propagate per-edge requirements into the minimal vertex retiming.

    ``deltas`` holds one requirement per edge row of ``graph.index()``.
    ``R(i) = max over out-edges (R(j) + delta(i, j))`` with ``R = 0`` at
    sinks; computed in one reverse pass over the rows (every edge out of
    a vertex comes before any edge into it), this is the unique
    pointwise-minimal legal retiming, hence it minimizes ``R_max`` for the
    given per-edge requirements.
    """
    index = graph.index()
    if len(deltas) != len(index.edge_keys):
        raise RetimingError(
            f"{'missing' if len(deltas) < len(index.edge_keys) else 'extra'} "
            f"deltas: need one per edge ({len(index.edge_keys)}), got "
            f"{len(deltas)}"
        )
    if deltas and min(deltas) < 0:
        row = next(row for row, delta in enumerate(deltas) if delta < 0)
        raise RetimingError(
            f"edge {index.edge_keys[row]}: negative delta {deltas[row]}"
        )
    retiming = [0] * len(index.op_ids)
    for producer, consumer, delta in zip(
        reversed(index.producers), reversed(index.consumers), reversed(deltas)
    ):
        reach = retiming[consumer] + delta
        if reach > retiming[producer]:
            retiming[producer] = reach
    edge_r = list(map(add, map(retiming.__getitem__, index.consumers), deltas))
    solution = RetimingSolution(index, retiming, edge_r, deltas)
    if not solution.is_legal():
        raise RetimingError("propagated retiming is illegal (internal error)")
    return solution


def placed_deltas(
    timings: EdgeTimings, placement: Mapping[Tuple[int, int], Placement]
) -> List[int]:
    """Required relative retiming of every edge row under its placement.

    ``placement`` is read by row (:func:`~repro.graph.taskgraph.column_of`):
    a row column of the graph's index, such as an allocation's
    ``placements``, is read in place.
    """
    return _placed(
        column_of(placement, timings.edge_keys),
        timings.delta_cache,
        timings.delta_edram,
    )


def _placed(
    placement: Sequence[Placement],
    if_cache: Sequence[int],
    if_edram: Sequence[int],
) -> List[int]:
    """``if_cache[r]`` for each row ``r`` placed in cache, ``if_edram[r]``
    for the rest: a copy of ``if_edram`` with the cached rows rewritten."""
    values = list(if_edram)
    for row in compress(
        range(len(values)), map(is_, placement, repeat(Placement.CACHE))
    ):
        values[row] = if_cache[row]
    return values


def emit_schedule(
    graph: TaskGraph,
    kernel: KernelSchedule,
    timings: EdgeTimings,
    placement: Mapping[Tuple[int, int], Placement],
    solution: RetimingSolution,
) -> PeriodicSchedule:
    """The periodic schedule of one allocation and its retiming: each
    row's placement and the transfer time it implies. The schedule gets
    its own copies of the placement column and of the kernel's
    ``pe``/``start``/``finish`` columns, so editing a plan never reaches
    the kernel the compiler keeps with the graph."""
    edge_placement = list(column_of(placement, timings.edge_keys))
    kernel = replace(
        kernel,
        pe=list(kernel.pe),
        start=list(kernel.start),
        finish=list(kernel.finish),
    )
    return PeriodicSchedule(
        graph, kernel, solution.vertex_r, solution.edge_r, edge_placement,
        _placed(edge_placement, timings.transfer_cache, timings.transfer_edram),
    )
