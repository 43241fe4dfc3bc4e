"""Traffic counters: accesses and bytes per memory level, ALU ops, pFIFO pushes."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict


@dataclass
class TrafficStats:
    """Per-run counters of data movement through the memory hierarchy.

    ``cache_*`` counts on-chip transfers (PE cache / pFIFO path);
    ``edram_*`` counts off-PE transfers through the TSVs to the stacked
    eDRAM vaults -- the quantity Para-CONV minimizes.
    """

    cache_accesses: int = 0
    cache_bytes: int = 0
    edram_accesses: int = 0
    edram_bytes: int = 0
    alu_ops: int = 0
    fifo_pushes: int = 0

    @property
    def total_accesses(self) -> int:
        return self.cache_accesses + self.edram_accesses

    @property
    def total_bytes(self) -> int:
        return self.cache_bytes + self.edram_bytes

    @property
    def offchip_fraction(self) -> float:
        """Fraction of moved bytes served by eDRAM (0.0 when idle)."""
        total = self.total_bytes
        return self.edram_bytes / total if total else 0.0

    def merged_with(self, other: "TrafficStats") -> "TrafficStats":
        """Element-wise sum of two sets of counters."""
        return TrafficStats(
            cache_accesses=self.cache_accesses + other.cache_accesses,
            cache_bytes=self.cache_bytes + other.cache_bytes,
            edram_accesses=self.edram_accesses + other.edram_accesses,
            edram_bytes=self.edram_bytes + other.edram_bytes,
            alu_ops=self.alu_ops + other.alu_ops,
            fifo_pushes=self.fifo_pushes + other.fifo_pushes,
        )

    def as_dict(self) -> Dict[str, int]:
        return {
            "cache_accesses": self.cache_accesses,
            "cache_bytes": self.cache_bytes,
            "edram_accesses": self.edram_accesses,
            "edram_bytes": self.edram_bytes,
            "alu_ops": self.alu_ops,
            "fifo_pushes": self.fifo_pushes,
        }
