"""Content-addressed cache of compiled Para-CONV plans.

Compiling a plan (retiming analysis + the ``B[S, m]`` dynamic program +
width search, paper Section 3) costs orders of magnitude more than looking
one up. The serving runtime therefore keys every compiled
:class:`~repro.core.paraconv.ParaConvResult` by a stable fingerprint of
everything that determines it:

* ``TaskGraph.fingerprint()`` -- the application structure,
* ``PimConfig.fingerprint()`` -- the machine,
* the allocator name and pipeline knobs (kernel order, liveness mode).

The cache is two-tier: an in-memory LRU front (bounded by plan count) and
an optional on-disk store, so a fleet can ship pre-compiled plans and a
restarted server warms from disk instead of re-running the dynamic
program. All hit/miss/eviction traffic is counted.

The disk tier (payload format version 2) holds one ``<digest>.json`` per
plan and one ``graphs/<fingerprint>.json`` per graph, written when
absent. A graph file that does not load as its fingerprint is deleted by
the reader that finds it, so the next write of that graph replaces it.
A plan payload names its graph by ``TaskGraph.fingerprint()`` instead
of embedding it, and holds the schedule in the
:mod:`repro.core.schedule_io` layout: a few flat arrays in sorted op-id
and sorted edge-key order. The allocation keeps only what the schedule
does not hold (its cached edges, as indices into that edge order).
Lookups take the graph the key was computed from, so a disk hit decodes
those arrays against the held graph and reads no graph file; the
standalone readers (:meth:`repro.fleet.store.SharedPlanStore.get`,
``python -m repro.runtime stats``) load the graph file. Every hydration
still runs ``validate_periodic_schedule``. :func:`read_plan` is the one
reader of plan files and :func:`write_plan` the one writer; a file of an
older format version, or of any wrong shape, is a miss that the next
compile overwrites.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Union

from repro.core.allocation import AllocationResult
from repro.core.cases import RetimingCase
from repro.core.paraconv import ParaConvResult
from repro.core.schedule import validate_kernel
from repro.core.schedule_io import schedule_from_dict, schedule_to_dict
from repro.graph.io import graph_from_json, graph_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement

if TYPE_CHECKING:  # pragma: no cover - annotations only
    from repro.sim.executor import ExecutionTrace

#: On-disk plan payload version; bump on any layout change.
PLAN_FORMAT_VERSION = 2

#: Subdirectory of a disk tier holding one ``<fingerprint>.json`` per graph.
GRAPH_DIR = "graphs"

#: Batch traces and steady-state boundaries one :class:`TraceTable`
#: holds; a serving run keeps a few dozen, so only a stream of ever-new
#: batch sizes reaches it.
BATCH_TRACE_CAPACITY = 256


class PlanCacheError(RuntimeError):
    """Raised for malformed plan payloads or inconsistent cache state."""


class TraceTable(OrderedDict):
    """Batch traces and stores of steady-state round states, least
    recently used first.

    :meth:`get` refreshes a trace; storing one past
    :data:`BATCH_TRACE_CAPACITY` evicts the least recently used. Both
    hold a lock, since the sessions of one cache may run on threads.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lock = threading.Lock()

    def get(self, key, default=None):
        with self._lock:
            if key not in self:
                return default
            self.move_to_end(key)
            return self[key]

    def peek(self, key, default=None):
        """Like :meth:`get`, but leaves the entry's recency alone."""
        with self._lock:
            return super().get(key, default)

    def __setitem__(self, key, value) -> None:
        with self._lock:
            super().__setitem__(key, value)
            self.move_to_end(key)
            if len(self) > BATCH_TRACE_CAPACITY:
                self.popitem(last=False)


# ----------------------------------------------------------------------
# keys
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class PlanKey:
    """Identity of one compiled plan.

    Two compilations with equal keys are guaranteed to produce identical
    plans (the whole pipeline is deterministic), which is what makes the
    cache sound. ``digest`` collapses the key into one hex string used as
    the on-disk filename.
    """

    graph_fingerprint: str
    config_fingerprint: str
    allocator: str = "dp"
    kernel_order: str = "topological"
    liveness_aware: bool = False

    @property
    def digest(self) -> str:
        payload = json.dumps(
            {
                "graph": self.graph_fingerprint,
                "config": self.config_fingerprint,
                "allocator": self.allocator,
                "kernel_order": self.kernel_order,
                "liveness_aware": self.liveness_aware,
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def plan_key_for(
    graph: TaskGraph,
    config: PimConfig,
    allocator: str = "dp",
    kernel_order: str = "topological",
    liveness_aware: bool = False,
) -> PlanKey:
    """Build the cache key for one (graph, machine, pipeline-knobs) tuple."""
    return PlanKey(
        graph_fingerprint=graph.fingerprint(),
        config_fingerprint=config.fingerprint(),
        allocator=allocator,
        kernel_order=kernel_order,
        liveness_aware=liveness_aware,
    )


# ----------------------------------------------------------------------
# plan (de)serialization — the on-disk tier
# ----------------------------------------------------------------------
def plan_to_dict(result: ParaConvResult) -> Dict[str, Any]:
    """Serialize a full compiled plan to a JSON-compatible dict.

    The graph is named by its fingerprint, not embedded; the schedule
    uses the :mod:`repro.core.schedule_io` layout. The allocation keeps
    what the schedule does not already hold: its placements are the
    schedule's, and its cached edges are indices into the schedule's
    sorted edge order.
    """
    allocation = result.allocation
    # Both are row columns of the graph's index on every compiled or
    # loaded plan, so this compares two lists (ColumnView.__eq__).
    if allocation.placements != result.schedule.placements:
        raise PlanCacheError(
            "allocation placements differ from the schedule's; the payload "
            "stores them once"
        )
    index = {key: i for i, key in enumerate(sorted(result.graph.edge_keys()))}
    return {
        "format_version": PLAN_FORMAT_VERSION,
        "graph": result.graph.fingerprint(),
        "config": result.config.to_dict(),
        "schedule": schedule_to_dict(result.schedule),
        "allocation": {
            "method": allocation.method,
            "cached": [index[key] for key in allocation.cached],
            "total_delta_r": allocation.total_delta_r,
            "slots_used": allocation.slots_used,
            "capacity_slots": allocation.capacity_slots,
        },
        "case_histogram": {
            str(int(case)): count for case, count in result.case_histogram.items()
        },
        "group_width": result.group_width,
        "num_groups": result.num_groups,
    }


def plan_from_dict(
    payload: Dict[str, Any],
    graph: Optional[TaskGraph] = None,
    graph_dir: Optional[Path] = None,
) -> ParaConvResult:
    """Rebuild (and semantically re-validate) a plan from its dict form.

    Hydration runs both validators: :func:`validate_kernel` at the
    payload's ``group_width`` (PE range, durations, PE exclusion) and,
    inside :func:`schedule_from_dict`, the periodic-schedule semantics.

    ``graph`` is the graph the plan was compiled for, held by the caller:
    the plan is hydrated against it (``plan.graph is graph``), and its
    fingerprint must be the one the payload names. Without it, the graph
    is read from ``graph_dir/<fingerprint>.json``, where the disk tier
    stores it. A payload of the wrong shape, a fingerprint that is not
    the held graph's, or a graph file that is missing or corrupt raises
    :class:`PlanCacheError`.
    """
    if not isinstance(payload, dict):
        raise PlanCacheError(
            f"plan payload must be an object, not {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != PLAN_FORMAT_VERSION:
        raise PlanCacheError(f"unsupported plan format version {version!r}")
    fingerprint = payload.get("graph")
    if not isinstance(fingerprint, str):
        raise PlanCacheError("plan payload does not name its graph")
    if graph is None:
        if graph_dir is None:
            raise PlanCacheError(
                f"plan of graph {fingerprint} needs the graph or a graph directory"
            )
        graph = _load_graph(graph_dir, fingerprint)
    elif graph.fingerprint() != fingerprint:
        raise PlanCacheError(
            f"plan payload names graph {fingerprint}, but graph "
            f"{graph.name!r} has fingerprint {graph.fingerprint()}"
        )
    try:
        schedule = schedule_from_dict(payload["schedule"], graph)
        group_width = int(payload["group_width"])
        validate_kernel(graph, schedule.kernel, group_width)
        config = PimConfig.from_dict(payload["config"])
        alloc = payload["allocation"]
        # Cached edges are indices into the sorted edge keys.
        edge_keys = sorted(graph.edge_keys())
        cached = [int(i) for i in alloc["cached"]]
        if any(not 0 <= i < len(edge_keys) for i in cached):
            raise PlanCacheError(
                f"cached edge index out of range 0..{len(edge_keys) - 1}"
            )
        cached_keys = [edge_keys[i] for i in cached]
        if any(schedule.placements[key] is not Placement.CACHE for key in cached_keys):
            raise PlanCacheError("a cached edge is not placed in cache")
        allocation = AllocationResult(
            method=str(alloc["method"]),
            placements=graph.index().by_row(list(schedule.edge_placement)),
            cached=cached_keys,
            total_delta_r=int(alloc["total_delta_r"]),
            slots_used=int(alloc["slots_used"]),
            capacity_slots=int(alloc["capacity_slots"]),
        )
        histogram = {
            RetimingCase(int(case)): int(count)
            for case, count in payload.get("case_histogram", {}).items()
        }
        return ParaConvResult(
            graph=graph,
            config=config,
            schedule=schedule,
            allocation=allocation,
            case_histogram=histogram,
            group_width=group_width,
            num_groups=int(payload["num_groups"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        # AttributeError: a nested section that is not an object;
        # ValueError covers ScheduleError and ConfigurationError.
        raise PlanCacheError(f"malformed plan payload: {exc}") from exc


# ----------------------------------------------------------------------
# the one reader and the one writer of plan files
# ----------------------------------------------------------------------
def _load_graph(graph_dir: Path, fingerprint: str) -> TaskGraph:
    """The graph stored as ``graph_dir/<fingerprint>.json``.

    Raises :class:`PlanCacheError` when the file is missing, does not
    parse, or holds a graph with another fingerprint. A file that exists
    but does not load as its fingerprint is deleted first, so the next
    :func:`write_plan` of that graph publishes it again.
    """
    path = graph_dir / f"{fingerprint}.json"
    try:
        graph = graph_from_json(path)
    except FileNotFoundError as exc:
        raise PlanCacheError(f"graph {fingerprint} unreadable: {exc}") from exc
    except (OSError, ValueError) as exc:
        # ValueError covers GraphValidationError, which also wraps bad JSON.
        _drop(path)
        raise PlanCacheError(f"graph {fingerprint} unreadable: {exc}") from exc
    if graph.fingerprint() != fingerprint:
        _drop(path)
        raise PlanCacheError(
            f"graph file {fingerprint}.json holds graph {graph.fingerprint()}"
        )
    return graph


def _drop(path: Path) -> None:
    """Delete a bad store file; a concurrent reader may have done so."""
    with contextlib.suppress(OSError):
        path.unlink()


def read_plan(path: Path, graph: Optional[TaskGraph] = None) -> ParaConvResult:
    """Hydrate the plan file at ``path``.

    ``graph`` is the held graph, as for :func:`plan_from_dict`; without
    it the graph is read from the ``graphs/`` directory next to the plan.
    Every way a file can fail (unreadable, not UTF-8, not JSON, not a
    plan) raises :class:`PlanCacheError`.
    """
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        # ValueError covers UnicodeDecodeError and JSONDecodeError.
        raise PlanCacheError(f"plan file {path.name} unreadable: {exc}") from exc
    return plan_from_dict(payload, graph, path.parent / GRAPH_DIR)


def _publish(path: Path, text: str) -> None:
    """Write ``text`` to ``path`` through a unique temp file and a rename.

    Many writers (threads or processes) may publish the same path at
    once. Each stages into its own temp file -- a fixed temp name would
    let two writers interleave into one file -- and atomically renames
    it into place, so readers see the old complete file or the new one,
    never a partial write.
    """
    fd, tmp_name = tempfile.mkstemp(
        prefix=f".{path.stem}.", suffix=".tmp", dir=path.parent
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise


def write_plan(directory: Path, digest: str, plan: ParaConvResult) -> None:
    """Publish ``plan`` as ``directory/<digest>.json``.

    Its graph is published first, as ``graphs/<fingerprint>.json``, and
    only when that file is absent (both directories are created as
    needed; a bad one was deleted by whoever failed to load it), so a
    reader that finds the plan finds its graph.
    Last-writer-wins on the plan is benign: equal keys always serialize
    identical plans.
    """
    graphs = directory / GRAPH_DIR
    graph_path = graphs / f"{plan.graph.fingerprint()}.json"
    if not graph_path.is_file():
        graphs.mkdir(parents=True, exist_ok=True)
        _publish(graph_path, json.dumps(graph_to_dict(plan.graph)))
    _publish(directory / f"{digest}.json", json.dumps(plan_to_dict(plan)))


# ----------------------------------------------------------------------
# the cache itself
# ----------------------------------------------------------------------
@dataclass
class CacheStats:
    """Hit/miss/eviction accounting for one :class:`PlanCache`."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    disk_hits: int = 0
    disk_writes: int = 0
    compile_seconds: float = 0.0
    #: disk payloads that parsed but failed invariant verification
    #: (only counted when the cache was built with ``verify_on_load``).
    verify_failures: int = 0
    #: cumulative per-pass compile wall time, summed over every plan this
    #: cache compiled (from each plan's
    #: :class:`~repro.compiler.pipeline.CompileStats`); plans hydrated from
    #: disk contribute nothing — they were never compiled here.
    pass_seconds: Dict[str, float] = field(default_factory=dict)

    def record_compile_stats(self, stats: Any) -> None:
        """Accumulate one compile's per-pass breakdown (``None`` ignored)."""
        if stats is None:
            return
        for pass_name, seconds in stats.pass_seconds.items():
            self.pass_seconds[pass_name] = (
                self.pass_seconds.get(pass_name, 0.0) + seconds
            )

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_writes": self.disk_writes,
            "hit_rate": self.hit_rate,
            "compile_seconds": self.compile_seconds,
            "verify_failures": self.verify_failures,
            "pass_seconds": {
                name: self.pass_seconds[name] for name in sorted(self.pass_seconds)
            },
        }


class PlanCache:
    """Two-tier (memory LRU + optional disk) store of compiled plans.

    Args:
        capacity: maximum number of plans held in memory; the least
            recently *used* plan is evicted first. Evicted plans survive
            on disk when a ``disk_dir`` is configured.
        disk_dir: optional directory for the persistent tier. Created on
            first write. One ``<digest>.json`` file per plan, and one
            ``graphs/<fingerprint>.json`` per graph. The
            directory may be *shared* by any number of caches across
            threads, workers and processes: writes stage into uniquely
            named temp files and publish with an atomic rename, so
            concurrent writers never produce a torn payload and a plan
            persisted by one worker is a disk hit for every other cache
            pointed at the same directory.
        verify_on_load: when true, plans hydrated from the disk tier are
            checked by the :class:`~repro.verify.validator.ScheduleValidator`
            before entering the memory tier. A plan that parses but breaks
            an invariant (tampered file, stale format producing a subtly
            wrong plan) degrades to a cache miss and bumps
            ``stats.verify_failures`` — serving then recompiles instead of
            executing a corrupt schedule. Memory-tier hits are trusted:
            they were verified (or freshly compiled) on the way in.

    Thread-safe: the warmup workers insert from multiple threads.
    """

    def __init__(
        self,
        capacity: int = 32,
        disk_dir: Optional[Union[str, Path]] = None,
        verify_on_load: bool = False,
    ):
        if capacity < 1:
            raise PlanCacheError("cache capacity must be >= 1")
        self.capacity = capacity
        self.disk_dir = Path(disk_dir) if disk_dir is not None else None
        self.verify_on_load = verify_on_load
        self.stats = CacheStats()
        #: traces of the batches sessions on this cache served without a
        #: fault, keyed ``(plan digest, active machine, sim mode, active
        #: fault model, N)``, and each plan's store of round states under
        #: the same key without ``N``, least recently used first. Every
        #: cache a :class:`~repro.fleet.store.SharedPlanStore` opens
        #: shares the store's table instead.
        self.batch_traces: "TraceTable[tuple, ExecutionTrace]" = TraceTable()
        self._plans: "OrderedDict[str, ParaConvResult]" = OrderedDict()
        self._lock = threading.RLock()

    # -- inspection ----------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._plans)

    def __contains__(self, key: PlanKey) -> bool:
        with self._lock:
            return key.digest in self._plans

    def keys(self) -> List[str]:
        """Memory-resident plan digests, least recently used first."""
        with self._lock:
            return list(self._plans)

    def disk_digests(self) -> List[str]:
        """Digests of every plan in the persistent tier (graph files
        excluded)."""
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(p.stem for p in self.disk_dir.glob("*.json"))

    # -- core operations ----------------------------------------------
    def get(self, key: PlanKey, graph: TaskGraph) -> Optional[ParaConvResult]:
        """Look up the plan of ``graph``; promotes memory hits, hydrates
        disk hits against ``graph``.

        ``graph`` is the graph ``key`` was computed from; a disk hit is
        built on it, and the stored graph file is not read.
        Raises :class:`PlanCacheError` naming both fingerprints when the
        graph is not the key's.
        """
        fingerprint = graph.fingerprint()
        if fingerprint != key.graph_fingerprint:
            raise PlanCacheError(
                f"graph {graph.name!r} has fingerprint {fingerprint}, but "
                f"the key was computed from {key.graph_fingerprint}"
            )
        digest = key.digest
        with self._lock:
            plan = self._plans.get(digest)
            if plan is not None:
                self._plans.move_to_end(digest)
                self.stats.hits += 1
                return plan
            plan = self._load_from_disk(digest, graph)
            if plan is not None:
                self.stats.hits += 1
                self.stats.disk_hits += 1
                self._insert(digest, plan, write_disk=False)
                return plan
            self.stats.misses += 1
            return None

    def put(self, key: PlanKey, plan: ParaConvResult) -> None:
        """Insert (or refresh) a plan under ``key``."""
        with self._lock:
            self._insert(key.digest, plan, write_disk=True)

    def get_or_compile(
        self,
        key: PlanKey,
        graph: TaskGraph,
        compile_fn: Callable[[], ParaConvResult],
    ) -> ParaConvResult:
        """The compile-once primitive: return the cached plan or build it.

        ``graph`` is the graph ``key`` was computed from, as for
        :meth:`get`.

        The compile happens outside any per-key memoization lock on
        purpose — compilations of *different* keys may run concurrently
        from the warmup pool; a duplicate concurrent compile of the same
        key is benign (both produce the identical deterministic plan).
        """
        plan = self.get(key, graph)
        if plan is not None:
            return plan
        started = time.perf_counter()
        plan = compile_fn()
        elapsed = time.perf_counter() - started
        with self._lock:
            self.stats.compile_seconds += elapsed
            self.stats.record_compile_stats(getattr(plan, "compile_stats", None))
            self._insert(key.digest, plan, write_disk=True)
        return plan

    def clear(self, memory_only: bool = True) -> None:
        """Drop the in-memory tier (and optionally the disk tier, graphs
        included)."""
        with self._lock:
            self._plans.clear()
            if not memory_only and self.disk_dir is not None and self.disk_dir.is_dir():
                for path in self.disk_dir.glob("*.json"):
                    path.unlink()
                shutil.rmtree(self.disk_dir / GRAPH_DIR, ignore_errors=True)

    # -- internals -----------------------------------------------------
    def _insert(self, digest: str, plan: ParaConvResult, write_disk: bool) -> None:
        if digest in self._plans:
            self._plans.move_to_end(digest)
        self._plans[digest] = plan
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.stats.evictions += 1
        if write_disk and self.disk_dir is not None:
            write_plan(self.disk_dir, digest, plan)
            self.stats.disk_writes += 1

    def _load_from_disk(
        self, digest: str, graph: TaskGraph
    ) -> Optional[ParaConvResult]:
        if self.disk_dir is None:
            return None
        path = self.disk_dir / f"{digest}.json"
        if not path.is_file():
            return None
        try:
            plan = read_plan(path, graph)
        except PlanCacheError:
            # A corrupt, unreadable or stale file must degrade to a miss,
            # never poison serving. The recompile that follows republishes
            # the graph file too, if loading it here finds it bad.
            with contextlib.suppress(PlanCacheError):
                _load_graph(self.disk_dir / GRAPH_DIR, graph.fingerprint())
            return None
        if self.verify_on_load and not self._plan_verifies(plan):
            self.stats.verify_failures += 1
            return None
        return plan

    @staticmethod
    def _plan_verifies(plan: ParaConvResult) -> bool:
        """True when the hydrated plan passes the invariant validator."""
        # Lazy import keeps the serving fast path free of the verifier.
        from repro.verify.validator import ScheduleValidator

        return ScheduleValidator().validate(plan).ok
