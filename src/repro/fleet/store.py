"""Shared content-addressed plan-artifact tier.

One directory of plan payloads (the :mod:`repro.runtime.plan_cache` disk
format, version 2) shared by every worker in a fleet: a plan compiled on
*any* shard is published here and becomes a warm disk hit for every
other shard that ever needs it — compile once, warm everywhere. The
directory holds one ``<digest>.json`` per plan and, under ``graphs/``,
one ``<fingerprint>.json`` per graph, written when absent (a reader
deletes one that does not load, so the next write repairs it). A plan
names its graph by fingerprint; workers hydrate plans against the graph
they hold, and :meth:`SharedPlanStore.get`, which holds none, reads the
graph file. Plan listings (:meth:`SharedPlanStore.digests`, ``len``,
``in``) count plans only. The store is safe for concurrent writers
across threads, workers and whole processes:

* every write goes through :func:`~repro.runtime.plan_cache.write_plan`,
  which stages into a uniquely named temp file and publishes with an
  atomic ``os.replace``, graph before plan (readers see complete
  payloads only, and a plan's graph is there before the plan is), and
* direct :meth:`SharedPlanStore.put` calls additionally serialize through
  an advisory file lock (``fcntl.flock`` where available), so two
  processes publishing the same digest never race the rename storm —
  last-writer-wins is benign anyway because equal keys serialize
  identical plans, but the lock keeps write accounting exact.

Workers normally reach the store through :meth:`open_cache`, which binds
an ordinary two-tier :class:`~repro.runtime.plan_cache.PlanCache` to the
shared directory — the memory LRU stays private per worker, the disk
tier is the fleet-wide artifact store.

The same rule covers simulation: a store handle owns one in-memory table
of batch traces, and every cache it opens shares it. A batch's trace is
a function of ``(plan digest, active machine, sim mode, active fault
model, N)``, so a shard that inherits another shard's workload — after a
kill, say — serves a batch size the fleet already simulated from that
table, and any other size its plan's steady-state boundary covers by
resuming from it. The table lives exactly as long as the handle; a new
``SharedPlanStore`` over the same directory starts it empty.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

try:  # pragma: no cover - platform availability, not logic
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX fallback
    fcntl = None  # type: ignore[assignment]

from repro.core.paraconv import ParaConvResult
from repro.runtime.plan_cache import (
    PlanCache,
    PlanCacheError,
    PlanKey,
    TraceTable,
    read_plan,
    write_plan,
)


@dataclass
class StoreStats:
    """Read/write accounting for one :class:`SharedPlanStore` handle."""

    reads: int = 0
    read_hits: int = 0
    writes: int = 0
    corrupt_payloads: int = 0

    def as_dict(self) -> Dict[str, Any]:
        return {
            "reads": self.reads,
            "read_hits": self.read_hits,
            "writes": self.writes,
            "corrupt_payloads": self.corrupt_payloads,
        }


class SharedPlanStore:
    """A directory of content-addressed compiled plans shared by a fleet.

    Args:
        directory: the artifact directory (created immediately, so a
            fleet of workers can all bind caches to it without racing
            ``mkdir``).
        verify_on_load: forwarded to every cache built by
            :meth:`open_cache` — hydrated plans are pushed through the
            invariant validator before being served.
    """

    LOCK_FILE = ".store.lock"

    def __init__(
        self,
        directory: Union[str, Path],
        verify_on_load: bool = False,
    ):
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.verify_on_load = verify_on_load
        self.stats = StoreStats()
        #: batch traces and steady-state boundaries shared by every cache
        #: :meth:`open_cache` returns (see :attr:`PlanCache.batch_traces`).
        self.batch_traces = TraceTable()

    # -- cache integration --------------------------------------------
    def open_cache(self, capacity: int = 32) -> PlanCache:
        """A per-worker two-tier cache whose disk tier is this store.

        Its memory tier and stats are its own; its batch-trace table is
        this store's.
        """
        cache = PlanCache(
            capacity=capacity,
            disk_dir=self.directory,
            verify_on_load=self.verify_on_load,
        )
        cache.batch_traces = self.batch_traces
        return cache

    # -- direct artifact access ---------------------------------------
    def _path(self, digest: str) -> Path:
        return self.directory / f"{digest}.json"

    def digests(self) -> List[str]:
        """Digests of every published plan (graph files excluded), sorted."""
        return sorted(p.stem for p in self.directory.glob("*.json"))

    def __len__(self) -> int:
        return len(self.digests())

    def __contains__(self, key: "PlanKey | str") -> bool:
        digest = key.digest if isinstance(key, PlanKey) else key
        return self._path(digest).is_file()

    @contextlib.contextmanager
    def _write_lock(self):
        """Advisory cross-process write lock (no-op where unsupported)."""
        if fcntl is None:  # pragma: no cover - non-POSIX fallback
            yield
            return
        lock_path = self.directory / self.LOCK_FILE
        with open(lock_path, "w") as handle:
            fcntl.flock(handle, fcntl.LOCK_EX)
            try:
                yield
            finally:
                fcntl.flock(handle, fcntl.LOCK_UN)

    def put(self, key: "PlanKey | str", plan: ParaConvResult) -> str:
        """Publish one plan under its digest; returns the digest."""
        digest = key.digest if isinstance(key, PlanKey) else str(key)
        with self._write_lock():
            write_plan(self.directory, digest, plan)
        self.stats.writes += 1
        return digest

    def get(self, key: "PlanKey | str") -> Optional[ParaConvResult]:
        """Hydrate one plan against its stored graph (``None`` when the
        plan is absent, or it or its graph file is corrupt)."""
        digest = key.digest if isinstance(key, PlanKey) else str(key)
        self.stats.reads += 1
        path = self._path(digest)
        if not path.is_file():
            return None
        try:
            plan = read_plan(path)
        except PlanCacheError:
            # Corrupt artifacts degrade to a miss, mirroring PlanCache.
            self.stats.corrupt_payloads += 1
            return None
        self.stats.read_hits += 1
        return plan

    def describe(self) -> str:
        return (
            f"SharedPlanStore({self.directory}): {len(self)} plans, "
            f"{self.stats.writes} writes / {self.stats.read_hits}/"
            f"{self.stats.reads} read hits"
        )
