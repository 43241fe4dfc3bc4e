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
graph and the machine alone; :func:`price_edges` computes them once and
the width search reuses that table for every candidate width.
:func:`edge_table` re-indexes the same prices by topological position,
for the width search's two bounds
(:func:`repro.compiler.transfer_critical_path` and
:func:`repro.compiler.kernel_stage_floor`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Mapping, NamedTuple, Optional, Sequence, Tuple

from repro.core.schedule import KernelSchedule, ScheduleError
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement


class RetimingError(ValueError):
    """Raised on illegal retimings or broken Theorem 3.1 premises."""


def required_retiming(finish: int, start: int, transfer: int, period: int) -> int:
    """Minimum relative retiming for one dependency.

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

    An immutable named tuple: ``analyze_edges`` builds one per edge at
    every explored width, so construction cost matters.

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
    """Price every edge of ``graph`` on ``config``, in edge insertion order.

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
    for edge in graph.edges():
        size = edge.size_bytes
        key = (edge.producer, edge.consumer)
        edram_units = size * edram_factor // per_unit
        slots = -(-size // slot_bytes)
        service = size // vault_bytes
        prices.append(
            EdgePrice(
                key,
                edge.producer,
                edge.consumer,
                size // per_unit,
                edram_units if edram_units > 1 else 1,
                slots if slots > 1 else 1,
                hash(key) % num_vaults,
                service if service > 1 else 1,
            )
        )
    return tuple(prices)


class EdgeTable(NamedTuple):
    """Index-based view of a graph's priced edges, for the width bounds.

    Vertices are numbered by their position in the graph's topological
    order, and the rows are sorted by producer index, then consumer
    index. A forward pass over the rows therefore sees every edge into a
    vertex before any edge out of it, and a reverse pass sees every edge
    out of a vertex before any edge into it, so a longest-path DP in
    either direction is one flat loop over the rows.

    Attributes:
        op_ids: op id of each vertex index (the topological order).
        execution_times: execution time of each vertex index.
        rows: one ``(producer, consumer, cache_units, edram_units,
            producer_execution_time)`` tuple per edge, endpoints as
            vertex indices and units as in :class:`EdgePrice`.
        max_cache_units: the largest ``cache_units`` of any row (0 when
            the graph has no edge).
    """

    op_ids: Tuple[int, ...]
    execution_times: Tuple[int, ...]
    rows: Tuple[Tuple[int, int, int, int, int], ...]
    max_cache_units: int


def edge_table(graph: TaskGraph, prices: Sequence[EdgePrice]) -> EdgeTable:
    """Build the :class:`EdgeTable` of ``graph`` from its
    :func:`price_edges` table."""
    op_ids = tuple(graph.topological_order())
    index = {op_id: position for position, op_id in enumerate(op_ids)}
    execution_times = tuple(
        graph.operation(op_id).execution_time for op_id in op_ids
    )
    rows = sorted(
        (
            index[price.producer],
            index[price.consumer],
            price.cache_units,
            price.edram_units,
            execution_times[index[price.producer]],
        )
        for price in prices
    )
    return EdgeTable(
        op_ids,
        execution_times,
        tuple(rows),
        max((row[2] for row in rows), default=0),
    )


def analyze_edges(
    graph: TaskGraph,
    kernel: KernelSchedule,
    config: PimConfig,
    prices: Optional[Sequence[EdgePrice]] = None,
) -> Dict[Tuple[int, int], EdgeTiming]:
    """Compute :class:`EdgeTiming` for every intermediate result.

    This is the "analysis of extra data movement" of Section 3.2: it bounds
    how many extra prologue iterations each placement choice costs.
    ``prices`` may carry :func:`price_edges` of the same graph and machine,
    precomputed once per width search; when omitted it is computed here.
    """
    period = kernel.period
    if period <= 0:
        raise RetimingError("kernel period must be positive")
    if prices is None:
        prices = price_edges(graph, config)
    placed = kernel.placements
    timings: Dict[Tuple[int, int], EdgeTiming] = {}
    for key, producer, consumer, cache_units, edram_units, slots, _, _ in prices:
        t_cache = cache_units if cache_units < period else period
        t_edram = edram_units if edram_units < period else period
        if t_edram < t_cache:
            raise RetimingError(
                f"edge {key}: eDRAM transfer faster than cache "
                "(configuration inverts the memory hierarchy)"
            )
        try:
            finish = placed[producer].finish
            start = placed[consumer].start
        except KeyError as exc:
            raise ScheduleError(
                f"op {exc.args[0]} missing from kernel"
            ) from None
        # delta = max(0, ceil((finish + t - start) / p)), per placement.
        gap = finish - start
        d_cache = -(-(gap + t_cache) // period) if gap + t_cache > 0 else 0
        d_edram = -(-(gap + t_edram) // period) if gap + t_edram > 0 else 0
        if d_cache > 2 or d_edram > 2:
            raise RetimingError(
                f"edge {key}: required retiming exceeds Theorem 3.1 "
                f"bound (cache={d_cache}, eDRAM={d_edram})"
            )
        timings[key] = EdgeTiming(
            key, t_cache, t_edram, d_cache, d_edram, slots, start
        )
    return timings


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
    graph: TaskGraph, timings: Dict[Tuple[int, int], EdgeTiming]
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
    """A legal vertex/edge retiming induced by per-edge requirements.

    Attributes:
        vertex_retiming: ``R(i)`` per operation.
        edge_retiming: ``R(i, j)`` per intermediate result, chosen as
            ``R(j) + delta(i, j)`` -- always inside the legal band
            ``[R(j), R(i)]``.
        deltas: the per-edge requirements the solution satisfies.
    """

    vertex_retiming: Dict[int, int]
    edge_retiming: Dict[Tuple[int, int], int]
    deltas: Dict[Tuple[int, int], int]

    @property
    def max_retiming(self) -> int:
        """``R_max`` -- the prologue length in iterations."""
        return max(self.vertex_retiming.values(), default=0)

    def is_legal(self) -> bool:
        """Definition 3.1: ``R(i) >= R(i,j) >= R(j)`` and ``R >= 0``."""
        vertex = self.vertex_retiming
        for (i, j), r_ij in self.edge_retiming.items():
            if not vertex[i] >= r_ij >= vertex[j]:
                return False
        return all(r >= 0 for r in vertex.values())


def solve_retiming(
    graph: TaskGraph, deltas: Mapping[Tuple[int, int], int]
) -> RetimingSolution:
    """Propagate per-edge requirements into the minimal vertex retiming.

    ``R(i) = max over out-edges (R(j) + delta(i, j))`` with ``R = 0`` at
    sinks; computed in reverse topological order, this is the unique
    pointwise-minimal legal retiming, hence it minimizes ``R_max``
    for the given per-edge requirements.
    """
    edge_keys = graph.edge_keys()
    if not edge_keys <= deltas.keys():
        missing = edge_keys - deltas.keys()
        raise RetimingError(f"missing deltas for edges: {sorted(missing)[:5]}")
    retiming: Dict[int, int] = {}
    for op_id in reversed(graph.topological_order()):
        best = 0
        for consumer in graph.successors(op_id):
            delta = deltas[(op_id, consumer)]
            if delta < 0:
                raise RetimingError(
                    f"edge {(op_id, consumer)}: negative delta {delta}"
                )
            reach = retiming[consumer] + delta
            if reach > best:
                best = reach
        retiming[op_id] = best
    edge_retiming = {key: retiming[key[1]] + deltas[key] for key in edge_keys}
    solution = RetimingSolution(
        vertex_retiming=retiming,
        edge_retiming=edge_retiming,
        deltas=dict(deltas),
    )
    if not solution.is_legal():
        raise RetimingError("propagated retiming is illegal (internal error)")
    return solution


def placed_deltas(
    timings: Mapping[Tuple[int, int], EdgeTiming],
    placement: Mapping[Tuple[int, int], Placement],
) -> Dict[Tuple[int, int], int]:
    """Required relative retiming of every edge under its placement."""
    cache = Placement.CACHE
    return {
        key: t.delta_cache if placement[key] is cache else t.delta_edram
        for key, t in timings.items()
    }
