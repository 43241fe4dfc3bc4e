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
an optional on-disk store (one JSON file per plan digest, reusing the
:mod:`repro.core.schedule_io` schedule format), so a fleet can ship
pre-compiled plans and a restarted server warms from disk instead of
re-running the dynamic program. All hit/miss/eviction traffic is counted.
Lookups take the graph the key was computed from, and a disk hit is
hydrated against it rather than against a parsed copy of the graph the
payload embeds.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import tempfile
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Union

from repro.core.allocation import AllocationResult
from repro.core.cases import RetimingCase
from repro.core.paraconv import ParaConvResult
from repro.core.schedule import ScheduleError
from repro.core.schedule_io import schedule_from_dict, schedule_to_dict
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.pim.memory import Placement

#: On-disk plan payload version; bump on any layout change.
PLAN_FORMAT_VERSION = 1


class PlanCacheError(RuntimeError):
    """Raised for malformed plan payloads or inconsistent cache state."""


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

    Reuses the :mod:`repro.core.schedule_io` schedule format (which embeds
    the task graph) and adds the allocation outcome, the Figure 4 case
    census and the group decomposition — everything
    :class:`ParaConvResult` carries.
    """
    allocation = result.allocation
    return {
        "format_version": PLAN_FORMAT_VERSION,
        "config": result.config.to_dict(),
        "schedule": schedule_to_dict(result.schedule),
        "allocation": {
            "method": allocation.method,
            "placements": [
                {"producer": i, "consumer": j, "where": p.value}
                for (i, j), p in allocation.placements.items()
            ],
            "cached": [[i, j] for (i, j) in allocation.cached],
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
    payload: Dict[str, Any], graph: Optional[TaskGraph] = None
) -> ParaConvResult:
    """Rebuild (and semantically re-validate) a plan from its dict form.

    ``graph``, when given, is the graph the plan was compiled for: the
    plan is hydrated against it (``plan.graph is graph``) instead of a
    parsed copy of the embedded one. A payload or section of the wrong
    shape raises :class:`PlanCacheError`.
    """
    if not isinstance(payload, dict):
        raise PlanCacheError(
            f"plan payload must be an object, not {type(payload).__name__}"
        )
    version = payload.get("format_version")
    if version != PLAN_FORMAT_VERSION:
        raise PlanCacheError(f"unsupported plan format version {version!r}")
    try:
        schedule = schedule_from_dict(payload["schedule"], graph)
        config = PimConfig.from_dict(payload["config"])
        alloc = payload["allocation"]
        allocation = AllocationResult(
            method=str(alloc["method"]),
            placements={
                (int(r["producer"]), int(r["consumer"])): Placement(r["where"])
                for r in alloc["placements"]
            },
            cached=[(int(i), int(j)) for i, j in alloc["cached"]],
            total_delta_r=int(alloc["total_delta_r"]),
            slots_used=int(alloc["slots_used"]),
            capacity_slots=int(alloc["capacity_slots"]),
        )
        histogram = {
            RetimingCase(int(case)): int(count)
            for case, count in payload.get("case_histogram", {}).items()
        }
        return ParaConvResult(
            graph=schedule.graph,
            config=config,
            schedule=schedule,
            allocation=allocation,
            case_histogram=histogram,
            group_width=int(payload["group_width"]),
            num_groups=int(payload["num_groups"]),
        )
    except (AttributeError, KeyError, TypeError, ValueError, ScheduleError) as exc:
        # AttributeError: a nested section that is not an object.
        raise PlanCacheError(f"malformed plan payload: {exc}") from exc


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
            first write. One ``<digest>.json`` file per plan. The
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
        """Digests of every plan in the persistent tier."""
        if self.disk_dir is None or not self.disk_dir.is_dir():
            return []
        return sorted(p.stem for p in self.disk_dir.glob("*.json"))

    # -- core operations ----------------------------------------------
    def get(self, key: PlanKey, graph: TaskGraph) -> Optional[ParaConvResult]:
        """Look up the plan of ``graph``; promotes memory hits, hydrates
        disk hits against ``graph``.

        ``graph`` is the graph ``key`` was computed from; a disk hit is
        built on it instead of a parsed copy of the embedded graph.
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
        """Drop the in-memory tier (and optionally the disk tier)."""
        with self._lock:
            self._plans.clear()
            if not memory_only and self.disk_dir is not None and self.disk_dir.is_dir():
                for path in self.disk_dir.glob("*.json"):
                    path.unlink()

    # -- internals -----------------------------------------------------
    def _insert(self, digest: str, plan: ParaConvResult, write_disk: bool) -> None:
        if digest in self._plans:
            self._plans.move_to_end(digest)
        self._plans[digest] = plan
        while len(self._plans) > self.capacity:
            self._plans.popitem(last=False)
            self.stats.evictions += 1
        if write_disk and self.disk_dir is not None:
            self.disk_dir.mkdir(parents=True, exist_ok=True)
            path = self.disk_dir / f"{digest}.json"
            # Shared-dir safety: many caches (threads *or* processes) may
            # persist the same digest concurrently. Each writer stages
            # into its own uniquely named temp file — a fixed temp name
            # would let two writers interleave into one file and publish
            # torn JSON — then atomically renames it into place. Readers
            # see either the old complete payload or the new one, never a
            # partial write, and last-writer-wins is benign because equal
            # keys always serialize identical plans.
            fd, tmp_name = tempfile.mkstemp(
                prefix=f".{digest}.", suffix=".tmp", dir=self.disk_dir
            )
            try:
                with os.fdopen(fd, "w") as handle:
                    handle.write(json.dumps(plan_to_dict(plan)))
                os.replace(tmp_name, path)
            except BaseException:
                with contextlib.suppress(OSError):
                    os.unlink(tmp_name)
                raise
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
            plan = plan_from_dict(json.loads(path.read_text()), graph)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError, PlanCacheError):
            # A corrupt or unreadable file must degrade to a miss, never
            # poison serving.
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
