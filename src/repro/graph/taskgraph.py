"""Core task-graph data structures (paper Section 2.2).

The application model is a weighted DAG ``G = (V, E, P, R)``:

* ``V = {T_1 .. T_n}`` -- each vertex is a convolution or pooling operation,
* ``E ⊆ V × V`` -- each directed edge ``(V_i, V_j)`` represents the
  intermediate processing result ``I_{i,j}`` produced by ``V_i`` and consumed
  by ``V_j``,
* ``P`` maps every intermediate result to two non-negative placement profits:
  ``P_alpha`` for on-chip cache in the PE array and ``P_beta`` for eDRAM in
  the 3D stacked memory, with ``P_alpha >> P_beta``,
* ``R`` (the retiming function) lives in :mod:`repro.core.retiming`; the
  graph itself is retiming-agnostic.

All times are integer *time units*; all sizes are integer *bytes*.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import json
from collections.abc import MutableMapping
from dataclasses import dataclass, replace
from typing import (
    Any,
    Callable,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    KeysView,
    List,
    Mapping,
    NamedTuple,
    Optional,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

T = TypeVar("T")

#: Version tag baked into every task-graph fingerprint; bump when the
#: canonical form changes so cached plans keyed on old fingerprints are
#: invalidated rather than silently reused.
GRAPH_FINGERPRINT_VERSION = 1


class GraphValidationError(ValueError):
    """Raised when a :class:`TaskGraph` violates a structural invariant."""


#: How many cycle members a cycle error names before truncating — enough
#: to localize the bug in a user-supplied graph, bounded so a pathological
#: whole-graph cycle cannot produce a megabyte error message.
CYCLE_REPORT_LIMIT = 12


def _describe_cycle(cycle: List[int]) -> str:
    """``3 -> 7 -> 9 -> 3`` rendering, truncated past the report limit."""
    shown = cycle[:CYCLE_REPORT_LIMIT]
    arrow = " -> ".join(str(v) for v in shown)
    if len(cycle) > CYCLE_REPORT_LIMIT:
        return f"{arrow} -> ... ({len(cycle) - CYCLE_REPORT_LIMIT} more) -> {cycle[0]}"
    return f"{arrow} -> {cycle[0]}"


class OperationKind(enum.Enum):
    """Functional class of a task-graph vertex.

    The partitioner (:mod:`repro.cnn.partition`) splits CNN applications by
    functionality -- convolution or pooling -- per paper Section 4.1; the
    remaining kinds support graph sources/sinks and synthetic workloads.
    """

    CONV = "conv"
    POOL = "pool"
    FC = "fc"
    INPUT = "input"
    OUTPUT = "output"
    GENERIC = "generic"

    @property
    def is_compute(self) -> bool:
        """Whether vertices of this kind occupy a processing engine."""
        return self not in (OperationKind.INPUT, OperationKind.OUTPUT)


@dataclass(frozen=True)
class Operation:
    """A convolution/pooling operation ``V_i`` (one task-graph vertex).

    The paper associates each operation with the tuple ``(s_i, c_i, d_i)``:
    start time, execution time and deadline. Only the execution time ``c_i``
    is intrinsic to the operation; start times and deadlines are produced by
    schedulers and stored in schedule objects, not here.

    Attributes:
        op_id: unique non-negative integer identifier within a graph.
        name: human-readable label (layer name for CNN-derived graphs).
        kind: functional class (conv, pool, ...).
        execution_time: ``c_i`` in time units, strictly positive.
        work: abstract operation count (MACs for convolutions); informational.
        fused_count: number of original operations this vertex stands for.
            ``1`` for ordinary vertices; fused-dataflow lowering
            (:func:`repro.graph.transforms.fuse_stages`, PIMfused-style)
            contracts a run of stages into one vertex and records the run
            length here so accounting and reports can attribute work.
    """

    op_id: int
    name: str = ""
    kind: OperationKind = OperationKind.CONV
    execution_time: int = 1
    work: int = 0
    fused_count: int = 1

    def __post_init__(self) -> None:
        if self.op_id < 0:
            raise GraphValidationError(f"op_id must be >= 0, got {self.op_id}")
        if self.execution_time <= 0:
            raise GraphValidationError(
                f"execution_time of {self.name or self.op_id} must be positive, "
                f"got {self.execution_time}"
            )
        if self.work < 0:
            raise GraphValidationError("work must be non-negative")
        if self.fused_count < 1:
            raise GraphValidationError("fused_count must be >= 1")
        if not self.name:
            object.__setattr__(self, "name", f"T{self.op_id}")

    def with_execution_time(self, execution_time: int) -> "Operation":
        """Return a copy of this operation with a different ``c_i``."""
        return replace(self, execution_time=execution_time)


@dataclass(frozen=True)
class IntermediateResult:
    """An intermediate processing result ``I_{i,j}`` (one task-graph edge).

    ``I_{i,j}`` is the data transferred from operation ``V_i`` to operation
    ``V_j``. Its placement (on-chip cache vs. eDRAM) determines both its
    transfer latency and the profit weights ``P_alpha``/``P_beta``.

    Attributes:
        producer: ``op_id`` of ``V_i``.
        consumer: ``op_id`` of ``V_j``.
        size_bytes: footprint of the intermediate data, strictly positive.
        profit_cache: ``P_alpha(I_{i,j})`` -- profit when placed in the
            on-chip PE cache.
        profit_edram: ``P_beta(I_{i,j})`` -- profit when placed in stacked
            eDRAM; the paper requires ``P_alpha >> P_beta``.
    """

    producer: int
    consumer: int
    size_bytes: int = 1
    profit_cache: int = 10
    profit_edram: int = 1

    def __post_init__(self) -> None:
        if self.producer == self.consumer:
            raise GraphValidationError(
                f"self-loop on operation {self.producer} is not a DAG edge"
            )
        if self.size_bytes <= 0:
            raise GraphValidationError("size_bytes must be positive")
        if self.profit_cache < 0 or self.profit_edram < 0:
            raise GraphValidationError("profits must be non-negative")
        if self.profit_cache < self.profit_edram:
            raise GraphValidationError(
                "P_alpha (cache profit) must dominate P_beta (eDRAM profit): "
                f"{self.profit_cache} < {self.profit_edram}"
            )

    @property
    def key(self) -> Tuple[int, int]:
        """The ``(producer, consumer)`` edge key."""
        return (self.producer, self.consumer)


class ColumnView(MutableMapping):
    """One column of a :class:`GraphIndex` layout, read and written by op
    id or edge key.

    Writes go to the column itself. Deleting an entry stores ``None``,
    which the view, and every schedule validator, treats as missing.
    """

    __slots__ = ("_keys", "_position", "_column")

    def __init__(self, keys: Sequence, position: Dict, column: List):
        self._keys = keys
        self._position = position
        self._column = column

    def __getitem__(self, key):
        value = self._column[self._position[key]]
        if value is None:
            raise KeyError(key)
        return value

    def __setitem__(self, key, value) -> None:
        self._column[self._position[key]] = value

    def __delitem__(self, key) -> None:
        self[key]  # KeyError if already missing
        self._column[self._position[key]] = None

    def __iter__(self):
        return (k for k, v in zip(self._keys, self._column) if v is not None)

    def __len__(self) -> int:
        return len(self._column) - self._column.count(None)

    def __eq__(self, other) -> bool:
        # Two views of one layout are equal when their columns are (a
        # missing entry is None in both): compare the columns instead of
        # building a dict of each.
        if isinstance(other, ColumnView) and other._keys is self._keys:
            return self._column == other._column
        return super().__eq__(other)

    __hash__ = None


def column_of(mapping: Mapping, keys: Sequence) -> Sequence:
    """``mapping[key]`` for each of ``keys``, as one column.

    A :class:`ColumnView` laid out over ``keys`` itself returns its own
    column, read in place (do not mutate it). Either way a missing entry
    raises ``KeyError``.
    """
    if isinstance(mapping, ColumnView) and mapping._keys is keys:
        column = mapping._column
        if None in column:
            raise KeyError(keys[column.index(None)])
        return column
    return [mapping[key] for key in keys]


class GraphIndex(NamedTuple):
    """A graph's content-only index space, the layout of every schedule
    column.

    Vertex ``v`` is the ``v``-th op of :meth:`TaskGraph.topological_order`
    (Kahn with min-id tie-breaks), edge row ``e`` the ``e``-th edge sorted
    by (producer vertex, consumer vertex). Neither order depends on
    insertion order, so a column means the same on every graph with one
    fingerprint. A forward pass over the rows sees every edge into a
    vertex before any edge out of it; a reverse pass, the other way round.

    Attributes:
        op_ids: op id of each vertex.
        position: vertex of each op id.
        execution_times: execution time of each vertex.
        edge_keys: ``(producer, consumer)`` op ids of each row.
        producers / consumers: the endpoints of each row, as vertices.
        row_of: row of each edge key.
    """

    op_ids: Tuple[int, ...]
    position: Dict[int, int]
    execution_times: Tuple[int, ...]
    edge_keys: Tuple[Tuple[int, int], ...]
    producers: Tuple[int, ...]
    consumers: Tuple[int, ...]
    row_of: Dict[Tuple[int, int], int]

    def by_vertex(self, column: List) -> ColumnView:
        """``column`` (one entry per vertex) keyed by op id."""
        return ColumnView(self.op_ids, self.position, column)

    def by_row(self, column: List) -> ColumnView:
        """``column`` (one entry per edge row) keyed by edge key."""
        return ColumnView(self.edge_keys, self.row_of, column)


class TaskGraph:
    """A weighted DAG of operations and intermediate processing results.

    Vertices and edges are added incrementally; :meth:`validate` checks the
    structural invariants (acyclicity, endpoint existence). Iteration order
    over operations is insertion order, which generators keep deterministic.

    The topological order and the :meth:`index` built on it are computed
    on first use and kept until the next :meth:`add_operation` /
    :meth:`add_edge`, so the width search sorts each graph once, not once
    per candidate. Values derived from the content alone (work sums, ASAP
    levels, packing orders, edge prices, the compiler's kernel records)
    are kept with the index through :meth:`derived` and dropped with it. The fingerprint is
    kept the same way, and assigning :attr:`period_hint` resets it too,
    so routing and plan-cache lookups hash each graph once.
    """

    def __init__(self, name: str = "taskgraph", period_hint: Optional[int] = None):
        self.name = name
        self._ops: Dict[int, Operation] = {}
        self._edges: Dict[Tuple[int, int], IntermediateResult] = {}
        self._succ: Dict[int, List[int]] = {}
        self._pred: Dict[int, List[int]] = {}
        #: cached :meth:`index`; reset whenever a vertex or edge is added.
        self._index: Optional[GraphIndex] = None
        #: :meth:`derived` values; a fresh map comes with each ``_index``.
        self._facts: Optional[Dict[Hashable, Any]] = None
        #: cached :meth:`fingerprint`; reset on every content change.
        self._fingerprint: Optional[str] = None
        self.period_hint = period_hint

    @property
    def period_hint(self) -> Optional[int]:
        """Optional externally supplied iteration period ``p``; schedulers
        compute their own period when this is ``None``."""
        return self._period_hint

    @period_hint.setter
    def period_hint(self, value: Optional[int]) -> None:
        self._period_hint = value
        self._fingerprint = None

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_operation(self, op: Operation) -> Operation:
        """Insert a vertex; raises if the ``op_id`` is already present."""
        if op.op_id in self._ops:
            raise GraphValidationError(f"duplicate op_id {op.op_id}")
        self._ops[op.op_id] = op
        self._succ[op.op_id] = []
        self._pred[op.op_id] = []
        self._index = None
        self._fingerprint = None
        return op

    def add_op(
        self,
        op_id: int,
        execution_time: int = 1,
        name: str = "",
        kind: OperationKind = OperationKind.CONV,
        work: int = 0,
        fused_count: int = 1,
    ) -> Operation:
        """Convenience wrapper around :meth:`add_operation`."""
        return self.add_operation(
            Operation(
                op_id=op_id,
                name=name,
                kind=kind,
                execution_time=execution_time,
                work=work,
                fused_count=fused_count,
            )
        )

    def add_edge(self, edge: IntermediateResult) -> IntermediateResult:
        """Insert the intermediate result ``I_{i,j}``.

        Both endpoints must already exist and the edge must be unique.
        Cycle detection is deferred to :meth:`validate` /
        :meth:`topological_order` so bulk construction stays ``O(V + E)``.
        """
        i, j = key = edge.producer, edge.consumer
        if i not in self._ops:
            raise GraphValidationError(f"producer {i} not in graph")
        if j not in self._ops:
            raise GraphValidationError(f"consumer {j} not in graph")
        if key in self._edges:
            raise GraphValidationError(f"duplicate edge {key}")
        self._edges[key] = edge
        self._succ[i].append(j)
        self._pred[j].append(i)
        self._index = None
        self._fingerprint = None
        return edge

    def connect(
        self,
        producer: int,
        consumer: int,
        size_bytes: int = 1,
        profit_cache: int = 10,
        profit_edram: int = 1,
    ) -> IntermediateResult:
        """Convenience wrapper around :meth:`add_edge`."""
        return self.add_edge(
            IntermediateResult(
                producer=producer,
                consumer=consumer,
                size_bytes=size_bytes,
                profit_cache=profit_cache,
                profit_edram=profit_edram,
            )
        )

    # ------------------------------------------------------------------
    # accessors
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        return len(self._ops)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def operations(self) -> List[Operation]:
        """All operations in insertion order."""
        return list(self._ops.values())

    def operation(self, op_id: int) -> Operation:
        try:
            return self._ops[op_id]
        except KeyError:
            raise GraphValidationError(f"unknown op_id {op_id}") from None

    def __contains__(self, op_id: int) -> bool:
        return op_id in self._ops

    def __iter__(self) -> Iterator[Operation]:
        return iter(self._ops.values())

    def __len__(self) -> int:
        return len(self._ops)

    def edges(self) -> List[IntermediateResult]:
        """All intermediate results in insertion order."""
        return list(self._edges.values())

    def edge(self, producer: int, consumer: int) -> IntermediateResult:
        try:
            return self._edges[(producer, consumer)]
        except KeyError:
            raise GraphValidationError(
                f"no intermediate result I_({producer},{consumer})"
            ) from None

    def has_edge(self, producer: int, consumer: int) -> bool:
        return (producer, consumer) in self._edges

    def edge_keys(self) -> KeysView[Tuple[int, int]]:
        """Live set-like view of every ``(producer, consumer)`` key, in
        insertion order."""
        return self._edges.keys()

    def successors(self, op_id: int) -> List[int]:
        return list(self._succ[op_id])

    def predecessors(self, op_id: int) -> List[int]:
        return list(self._pred[op_id])

    def out_degree(self, op_id: int) -> int:
        return len(self._succ[op_id])

    def in_degree(self, op_id: int) -> int:
        return len(self._pred[op_id])

    def sources(self) -> List[int]:
        """Operations with no predecessors (graph inputs)."""
        return [i for i in self._ops if not self._pred[i]]

    def sinks(self) -> List[int]:
        """Operations with no successors (graph outputs)."""
        return [i for i in self._ops if not self._succ[i]]

    def out_edges(self, op_id: int) -> List[IntermediateResult]:
        return [self._edges[(op_id, j)] for j in self._succ[op_id]]

    def in_edges(self, op_id: int) -> List[IntermediateResult]:
        return [self._edges[(i, op_id)] for i in self._pred[op_id]]

    def total_work(self) -> int:
        """``Σ c_i`` -- lower-bound numerator for the load-balance bound."""
        return sum(op.execution_time for op in self._ops.values())

    def max_execution_time(self) -> int:
        """``max c_i`` -- the other term of the load-balance bound."""
        if not self._ops:
            return 0
        return max(op.execution_time for op in self._ops.values())

    def total_intermediate_bytes(self) -> int:
        """Aggregate footprint of all intermediate processing results."""
        return sum(e.size_bytes for e in self._edges.values())

    # ------------------------------------------------------------------
    # structure
    # ------------------------------------------------------------------
    def topological_order(self) -> List[int]:
        """Kahn topological order; raises on cycles.

        Ties are broken by ``op_id`` (the smallest ready id goes first) so
        the order is deterministic, which keeps every downstream schedule
        reproducible. The order is computed once per graph state and each
        call returns a fresh copy; a cyclic graph raises on every call.
        """
        return list(self.index().op_ids)

    def index(self) -> "GraphIndex":
        """The graph's content-only :class:`GraphIndex`, built once per
        graph state (do not mutate its members)."""
        if self._index is None:
            op_ids = tuple(self._kahn())
            position = {op_id: v for v, op_id in enumerate(op_ids)}
            # The rows hold the graph's own edge-key tuples, not copies.
            edge_keys = tuple(sorted(
                self._edges, key=lambda key: (position[key[0]], position[key[1]])
            ))
            self._index = GraphIndex(
                op_ids,
                position,
                tuple(self._ops[op_id].execution_time for op_id in op_ids),
                edge_keys,
                tuple(position[i] for i, _ in edge_keys),
                tuple(position[j] for _, j in edge_keys),
                {key: row for row, key in enumerate(edge_keys)},
            )
            self._facts = {}
        return self._index

    def derived(self, key: Hashable, build: Callable[[], T]) -> T:
        """``build()``, computed once per :meth:`index` and kept under
        ``key`` until a vertex or edge is added.

        ``build`` must read only the graph's content (its operations and
        edges, not its name or period hint) and whatever ``key`` names;
        the value is shared, so callers must not mutate it. Graphs that
        share an index share these values too (see
        :func:`repro.cnn.workloads.load_workload`).

        The compiler keeps one
        :class:`~repro.compiler.context.KernelRecord` here per packing
        order and group width (key ``("kernel", order, width)``): the
        validated kernel, and the ``R_floor`` and edge timings computed
        from it per edge-table unit constants, which the record holds in
        a map of its own that grows as compiles need them. Two threads
        that miss the same key may both build it; they build equal values
        and either is kept.
        """
        self.index()
        facts = self._facts
        try:
            return facts[key]
        except KeyError:
            value = facts[key] = build()
            return value

    def _kahn(self) -> List[int]:
        indeg = {i: len(self._pred[i]) for i in self._ops}
        ready = [i for i, d in indeg.items() if d == 0]
        heapq.heapify(ready)
        order: List[int] = []
        while ready:
            node = heapq.heappop(ready)
            order.append(node)
            for succ in self._succ[node]:
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    heapq.heappush(ready, succ)
        if len(order) != len(self._ops):
            remaining = set(self._ops).difference(order)
            cycle = self._find_cycle(remaining)
            raise GraphValidationError(
                f"graph '{self.name}' contains a cycle; a CNN dataflow must be "
                f"a DAG (cycle: {_describe_cycle(cycle)})"
            )
        return order

    def _find_cycle(self, remaining: "Set[int]") -> List[int]:
        """One concrete cycle among the vertices Kahn could not order.

        Every vertex left over after Kahn's algorithm has at least one
        predecessor that is also left over, so walking predecessors
        (smallest id first, for determinism) must revisit a vertex; the
        walk between the two visits — reversed into edge direction — is
        a cycle. Used only to make the cycle error actionable.
        """
        start = min(remaining)
        path = [start]
        seen = {start: 0}
        node = start
        while True:
            node = min(p for p in self._pred[node] if p in remaining)
            if node in seen:
                cycle = list(reversed(path[seen[node]:]))
                # Rotate the smallest member to the front so the same
                # cycle always renders identically regardless of where
                # the predecessor walk happened to close it.
                pivot = cycle.index(min(cycle))
                return cycle[pivot:] + cycle[:pivot]
            seen[node] = len(path)
            path.append(node)

    def is_acyclic(self) -> bool:
        try:
            self.topological_order()
        except GraphValidationError:
            return False
        return True

    def validate(self) -> None:
        """Check all structural invariants; raises on violation."""
        if not self._ops:
            raise GraphValidationError(f"graph '{self.name}' is empty")
        self.topological_order()
        if self.period_hint is not None and self.period_hint <= 0:
            raise GraphValidationError("period_hint must be positive")

    def fingerprint(self) -> str:
        """Stable content hash of the graph structure (hex digest).

        The canonical form covers every semantically meaningful field —
        operations (id, kind, execution time, work), intermediate results
        (endpoints, size, profits) and the period hint — sorted by id/key
        so insertion order does not matter. The graph *name* is excluded:
        two structurally identical graphs produce the same fingerprint
        regardless of labelling, which is exactly the content-addressing
        the runtime plan cache needs. A version tag is folded in so a
        change to the canonical form invalidates old fingerprints.

        A simulation depends on the graph's content only (the executor
        walks ops by id and edges by key), so graphs with equal
        fingerprints simulate identically whatever their insertion order.

        Computed once per graph state, like :meth:`topological_order`.
        """
        if self._fingerprint is None:
            self._fingerprint = self._content_hash()
        return self._fingerprint

    def _content_hash(self) -> str:
        canonical = {
            "fingerprint_version": GRAPH_FINGERPRINT_VERSION,
            "period_hint": self.period_hint,
            # fused_count is appended only when non-default so every
            # pre-fusion graph keeps its historical fingerprint (cached
            # plans and golden fixtures stay valid), while any fused
            # vertex changes identity as it must.
            "operations": [
                [op.op_id, op.kind.value, op.execution_time, op.work]
                + ([op.fused_count] if op.fused_count != 1 else [])
                for op in sorted(self._ops.values(), key=lambda o: o.op_id)
            ],
            "edges": [
                [e.producer, e.consumer, e.size_bytes, e.profit_cache, e.profit_edram]
                for e in sorted(self._edges.values(), key=lambda e: e.key)
            ],
        }
        payload = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def copy(self, name: Optional[str] = None) -> "TaskGraph":
        """Deep-enough copy (operations and edges are immutable).

        The copy has its own maps, in this graph's insertion order, and
        starts with no cached index, facts or fingerprint.
        """
        clone = TaskGraph(name=name or self.name, period_hint=self.period_hint)
        clone._ops = dict(self._ops)
        clone._edges = dict(self._edges)
        clone._succ = {op_id: list(out) for op_id, out in self._succ.items()}
        clone._pred = {op_id: list(into) for op_id, into in self._pred.items()}
        return clone

    def subgraph(self, op_ids: Iterable[int], name: Optional[str] = None) -> "TaskGraph":
        """Induced subgraph over ``op_ids`` (edges with both endpoints kept)."""
        keep = set(op_ids)
        missing = keep - set(self._ops)
        if missing:
            raise GraphValidationError(f"unknown op_ids in subgraph: {sorted(missing)}")
        sub = TaskGraph(name=name or f"{self.name}-sub", period_hint=self.period_hint)
        for op_id in self._ops:  # preserve insertion order
            if op_id in keep:
                sub.add_operation(self._ops[op_id])
        for edge in self._edges.values():
            if edge.producer in keep and edge.consumer in keep:
                sub.add_edge(edge)
        return sub

    def relabelled(self, name: Optional[str] = None) -> "TaskGraph":
        """Return a copy with op_ids compacted to ``0..n-1`` in insertion order."""
        mapping = {old: new for new, old in enumerate(self._ops)}
        out = TaskGraph(name=name or self.name, period_hint=self.period_hint)
        for op in self._ops.values():
            out.add_operation(replace(op, op_id=mapping[op.op_id]))
        for edge in self._edges.values():
            out.add_edge(
                replace(
                    edge,
                    producer=mapping[edge.producer],
                    consumer=mapping[edge.consumer],
                )
            )
        return out

    def __repr__(self) -> str:
        return (
            f"TaskGraph(name={self.name!r}, vertices={self.num_vertices}, "
            f"edges={self.num_edges})"
        )

