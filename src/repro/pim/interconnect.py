"""Crossbar interconnect between PEs and eDRAM vaults (paper Section 4.1).

The evaluated architecture connects up to 64 PEs to the stacked memory
through a crossbar. The model here is port-based: every PE has one
injection port and every vault one service port; a transfer occupies both
for its duration, so independent (PE, vault) pairs proceed concurrently
while conflicting requests serialize -- the first-order behaviour that
matters for intermediate-result traffic.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.pim.config import ConfigurationError


@dataclass(frozen=True)
class TransferRecord:
    """One completed crossbar transfer (for traces and tests)."""

    source: int
    destination: int
    size_bytes: int
    start: int
    finish: int


class Crossbar:
    """Conflict-free crossbar with per-port serialization.

    ``num_inputs`` PE-side ports, ``num_outputs`` vault-side ports. A
    transfer of ``n`` time units issued at time ``t`` starts at the first
    instant both ports are free and holds them until completion.
    """

    def __init__(self, num_inputs: int, num_outputs: int,
                 keep_records: bool = True):
        if num_inputs < 1 or num_outputs < 1:
            raise ConfigurationError("crossbar needs >= 1 port on each side")
        self.num_inputs = num_inputs
        self.num_outputs = num_outputs
        #: set False for long simulations: the per-transfer record list is
        #: O(number of transfers) and exists for traces and tests only.
        self.keep_records = keep_records
        self._input_free = [0] * num_inputs
        self._output_free = [0] * num_outputs
        self.records: List[TransferRecord] = []

    def transfer(
        self, source: int, destination: int, duration: int, now: int,
        size_bytes: int = 0,
    ) -> Tuple[int, int]:
        """Schedule a transfer; returns ``(start, finish)``."""
        if not 0 <= source < self.num_inputs:
            raise ConfigurationError(f"bad source port {source}")
        if not 0 <= destination < self.num_outputs:
            raise ConfigurationError(f"bad destination port {destination}")
        if duration < 0:
            raise ConfigurationError("duration must be >= 0")
        start = max(now, self._input_free[source], self._output_free[destination])
        finish = start + duration
        self._input_free[source] = finish
        self._output_free[destination] = finish
        if self.keep_records:
            self.records.append(
                TransferRecord(source, destination, size_bytes, start, finish)
            )
        return start, finish

    def port_pressure(self) -> Dict[str, int]:
        """Latest free times per side; a congestion indicator for reports."""
        return {
            "max_input_busy_until": max(self._input_free),
            "max_output_busy_until": max(self._output_free),
        }

    def reset(self) -> None:
        self._input_free = [0] * self.num_inputs
        self._output_free = [0] * self.num_outputs
        self.records.clear()
