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
    """

    key: Tuple[int, int]
    producer: int
    consumer: int
    cache_units: int
    edram_units: int
    slots: int


def price_edges(graph: TaskGraph, config: PimConfig) -> Tuple[EdgePrice, ...]:
    """Price every edge of ``graph`` on ``config``, in edge insertion order."""
    return tuple(
        EdgePrice(
            edge.key,
            edge.producer,
            edge.consumer,
            config.cache_transfer_units(edge.size_bytes),
            config.edram_transfer_units(edge.size_bytes),
            config.slots_required(edge.size_bytes),
        )
        for edge in graph.edges()
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
    for key, producer, consumer, cache_units, edram_units, slots in prices:
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


def retiming_floor(
    graph: TaskGraph, timings: Mapping[Tuple[int, int], EdgeTiming]
) -> int:
    """Smallest ``R_max`` any placement of the edges can induce.

    The :func:`solve_retiming` propagation with every edge at
    ``min(delta_cache, delta_edram)``. Every allocator places each edge in
    cache or eDRAM, and the minimal retiming only grows when a delta
    grows, so every plan built on these timings has ``R_max`` at least
    this. Computes the vertex retimings only: no edge dict, no legality
    check.
    """
    retiming: Dict[int, int] = {}
    for op_id in reversed(graph.topological_order()):
        best = 0
        for consumer in graph.successors(op_id):
            timing = timings[(op_id, consumer)]
            d_cache = timing.delta_cache
            d_edram = timing.delta_edram
            reach = retiming[consumer] + (
                d_cache if d_cache < d_edram else d_edram
            )
            if reach > best:
                best = reach
        retiming[op_id] = best
    return max(retiming.values(), default=0)


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


def max_retiming_for_placement(
    graph: TaskGraph,
    timings: Mapping[Tuple[int, int], EdgeTiming],
    placement: Mapping[Tuple[int, int], Placement],
) -> int:
    """``R_max`` that a concrete placement of every edge induces."""
    return solve_retiming(graph, placed_deltas(timings, placement)).max_retiming
