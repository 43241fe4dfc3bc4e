"""Memory hierarchy models: PE data cache and stacked eDRAM vaults.

The analytic Para-CONV model only needs capacities and transfer-time ratios
(:class:`repro.pim.config.PimConfig`); the discrete-event simulator uses the
stateful models here to track residency, evictions and per-level traffic.
"""

from __future__ import annotations

import enum
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Hashable, List, Tuple

from repro.pim.config import ConfigurationError, PimConfig
from repro.pim.stats import TrafficStats


class Placement(enum.Enum):
    """Where an intermediate processing result lives."""

    CACHE = "cache"
    EDRAM = "edram"


class CacheModel:
    """Slot-granular on-chip cache with LRU eviction.

    Models the data cache of the PE array that stores intermediate CNN
    processing results. Capacity is expressed in allocation slots (see
    :attr:`PimConfig.cache_slot_bytes`); entries are keyed by arbitrary
    hashable identifiers (edge keys in practice).
    """

    def __init__(self, capacity_slots: int):
        if capacity_slots < 0:
            raise ConfigurationError("capacity_slots must be >= 0")
        self.capacity_slots = capacity_slots
        self._resident: "OrderedDict[Hashable, int]" = OrderedDict()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    @property
    def used_slots(self) -> int:
        return self._used

    @property
    def free_slots(self) -> int:
        return self.capacity_slots - self._used

    def contains(self, key: Hashable) -> bool:
        return key in self._resident

    def fits(self, slots: int) -> bool:
        """Whether ``slots`` more slots fit without eviction."""
        return slots <= self.free_slots

    def touch(self, key: Hashable) -> bool:
        """Record an access; returns True on hit (and refreshes LRU order)."""
        if key in self._resident:
            self._resident.move_to_end(key)
            self.hits += 1
            return True
        self.misses += 1
        return False

    def insert(self, key: Hashable, slots: int, evict: bool = True) -> List[Hashable]:
        """Insert an entry, optionally evicting LRU entries to make room.

        Returns the list of evicted keys. Raises if the entry can never fit
        or if ``evict`` is False and there is no room.
        """
        if slots < 1:
            raise ConfigurationError("entry must occupy at least one slot")
        if slots > self.capacity_slots:
            raise ConfigurationError(
                f"entry of {slots} slots exceeds cache capacity "
                f"{self.capacity_slots}"
            )
        if key in self._resident:
            raise ConfigurationError(f"key {key!r} already resident")
        evicted: List[Hashable] = []
        while self._used + slots > self.capacity_slots:
            if not evict:
                raise ConfigurationError(
                    f"no room for {slots} slots and eviction disabled"
                )
            victim, victim_slots = self._resident.popitem(last=False)
            self._used -= victim_slots
            self.evictions += 1
            evicted.append(victim)
        self._resident[key] = slots
        self._used += slots
        return evicted

    def remove(self, key: Hashable) -> None:
        """Explicitly free an entry (consumer finished with the data)."""
        try:
            slots = self._resident.pop(key)
        except KeyError:
            raise ConfigurationError(f"key {key!r} not resident") from None
        self._used -= slots

    def resident_keys(self) -> List[Hashable]:
        return list(self._resident)

    def clear(self) -> None:
        self._resident.clear()
        self._used = 0


class EdramVault:
    """One TSV-attached eDRAM vault of the 3D stack.

    Capacity is effectively unbounded relative to intermediate-result
    working sets; the model tracks access counts and busy time so the
    simulator can account vault contention and the energy model can price
    the off-PE traffic.
    """

    def __init__(self, vault_id: int, bytes_per_unit: int):
        if bytes_per_unit < 1:
            raise ConfigurationError("bytes_per_unit must be >= 1")
        self.vault_id = vault_id
        self.bytes_per_unit = bytes_per_unit
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0
        self._free_at = 0

    def access_time(self, size_bytes: int) -> int:
        """Service time (time units) for one access, at least one unit."""
        if size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        return max(1, size_bytes // self.bytes_per_unit)

    def read(self, size_bytes: int, now: int) -> int:
        """Issue a read at ``now``; returns completion time (with queueing)."""
        self.reads += 1
        self.bytes_read += size_bytes
        start = max(now, self._free_at)
        self._free_at = start + self.access_time(size_bytes)
        return self._free_at

    def write(self, size_bytes: int, now: int) -> int:
        """Issue a write at ``now``; returns completion time (with queueing)."""
        self.writes += 1
        self.bytes_written += size_bytes
        start = max(now, self._free_at)
        self._free_at = start + self.access_time(size_bytes)
        return self._free_at

    @property
    def busy_until(self) -> int:
        """Earliest time this vault can service the next access."""
        return self._free_at

    def reset(self) -> None:
        self.reads = self.writes = 0
        self.bytes_read = self.bytes_written = 0
        self._free_at = 0


@dataclass
class MemorySystem:
    """Aggregate cache + vault hierarchy for one machine instance."""

    config: PimConfig
    num_vaults: int = 16
    cache: CacheModel = field(init=False)
    vaults: List[EdramVault] = field(init=False)
    stats: TrafficStats = field(init=False)

    def __post_init__(self) -> None:
        if self.num_vaults < 1:
            raise ConfigurationError("num_vaults must be >= 1")
        self.cache = CacheModel(self.config.total_cache_slots)
        effective = max(
            1, self.config.cache_bytes_per_unit // self.config.edram_latency_factor
        )
        self.vaults = [EdramVault(v, effective) for v in range(self.num_vaults)]
        self.stats = TrafficStats()

    def vault_for(self, key: Tuple[int, int]) -> EdramVault:
        """Static address-interleaved vault assignment for an edge key."""
        return self.vaults[hash(key) % self.num_vaults]

    def record_cache_transfer(self, size_bytes: int) -> None:
        self.stats.cache_accesses += 1
        self.stats.cache_bytes += size_bytes

    def record_edram_transfer(self, size_bytes: int) -> None:
        self.stats.edram_accesses += 1
        self.stats.edram_bytes += size_bytes

    def reset(self) -> None:
        self.cache.clear()
        for vault in self.vaults:
            vault.reset()
        self.stats = TrafficStats()
