"""Processing engines and the PE array (paper Figure 1).

Each PE integrates a PE FIFO (pFIFO), an ALU datapath, a register file and a
data cache for intermediate CNN processing results; iFIFO/oFIFO carry the
traffic among PEs. For scheduling purposes a PE is a unit-capacity resource
with a busy timeline; for simulation it additionally tracks FIFO occupancy
and local traffic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Deque, Iterator, List, Optional, Tuple

from repro.pim.config import ConfigurationError, PimConfig
from repro.pim.stats import TrafficStats

#: Depth of a PE's pFIFO, in staged intermediate results.
PFIFO_DEPTH = 16


@dataclass(frozen=True)
class FifoEntry:
    """One datum waiting in a FIFO: (edge key, size in bytes)."""

    key: Tuple[int, int]
    size_bytes: int


class Fifo:
    """Bounded FIFO used for pFIFO/iFIFO/oFIFO structures."""

    def __init__(self, depth: int = PFIFO_DEPTH):
        if depth < 1:
            raise ConfigurationError("FIFO depth must be >= 1")
        self.depth = depth
        self._entries: Deque[FifoEntry] = deque()
        self.peak_occupancy = 0
        self.total_pushes = 0

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self) -> Iterator[FifoEntry]:
        return iter(self._entries)

    @property
    def full(self) -> bool:
        return len(self._entries) >= self.depth

    def push(self, entry: FifoEntry) -> None:
        if self.full:
            raise ConfigurationError("FIFO overflow")
        self._entries.append(entry)
        self.total_pushes += 1
        self.peak_occupancy = max(self.peak_occupancy, len(self._entries))

    def pop(self) -> FifoEntry:
        if not self._entries:
            raise ConfigurationError("FIFO underflow")
        return self._entries.popleft()

    def pop_matching(self, key: Tuple[int, int]) -> Optional[FifoEntry]:
        """Remove and return the oldest entry staged for ``key``.

        Returns ``None`` when no entry for that key is queued (the datum
        degraded to a direct cache/eDRAM read because the FIFO was full
        at arrival time). Unlike :meth:`pop`, this never discards an
        entry belonging to a different edge.
        """
        for index, entry in enumerate(self._entries):
            if entry.key == key:
                del self._entries[index]
                return entry
        return None

    def clear(self) -> None:
        self._entries.clear()


class ProcessingEngine:
    """One PE: compute resource plus local structures.

    The scheduling view is a busy timeline (`reserve` returns the earliest
    feasible start at or after a requested time). The microarchitectural
    structures (pFIFO, register file size) exist so the simulator can track
    occupancy; they do not constrain the analytic model.
    """

    def __init__(self, pe_id: int, config: PimConfig,
                 fifo_depth: int = PFIFO_DEPTH,
                 register_file_bytes: int = 512):
        if pe_id < 0:
            raise ConfigurationError("pe_id must be >= 0")
        self.pe_id = pe_id
        self.config = config
        self.pfifo = Fifo(fifo_depth)
        self.register_file_bytes = register_file_bytes
        self.stats = TrafficStats()
        self._free_at = 0
        self._busy_units = 0

    @property
    def free_at(self) -> int:
        """Earliest time this PE is idle."""
        return self._free_at

    @property
    def busy_units(self) -> int:
        """Total time units of work executed so far."""
        return self._busy_units

    def utilization(self, horizon: int) -> float:
        """Busy fraction over ``[0, horizon)``."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self._busy_units / horizon)

    def reserve(self, earliest: int, duration: int) -> Tuple[int, int]:
        """Book ``duration`` units at the first idle point >= ``earliest``.

        Returns ``(start, finish)``. PEs execute one operation at a time, so
        the timeline is a single high-water mark.
        """
        if duration <= 0:
            raise ConfigurationError("duration must be positive")
        if earliest < 0:
            raise ConfigurationError("earliest must be >= 0")
        start = max(earliest, self._free_at)
        finish = start + duration
        self._free_at = finish
        self._busy_units += duration
        return start, finish

    def reset(self) -> None:
        self._free_at = 0
        self._busy_units = 0
        self.pfifo.clear()
        self.stats = TrafficStats()


class PEArray:
    """The on-chip array of processing engines."""

    def __init__(self, config: PimConfig):
        self.config = config
        self.pes: List[ProcessingEngine] = [
            ProcessingEngine(pe_id, config) for pe_id in range(config.num_pes)
        ]

    def __len__(self) -> int:
        return len(self.pes)

    def __getitem__(self, pe_id: int) -> ProcessingEngine:
        return self.pes[pe_id]

    def earliest_available(self) -> ProcessingEngine:
        """PE that frees up first (ties broken by lowest id)."""
        return min(self.pes, key=lambda pe: (pe.free_at, pe.pe_id))

    def makespan(self) -> int:
        """Latest busy point across all PEs."""
        return max((pe.free_at for pe in self.pes), default=0)

    def total_stats(self) -> TrafficStats:
        merged = TrafficStats()
        for pe in self.pes:
            merged = merged.merged_with(pe.stats)
        return merged

    def reset(self) -> None:
        for pe in self.pes:
            pe.reset()
