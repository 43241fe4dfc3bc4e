"""Error type shared by the discrete-event simulator."""

from __future__ import annotations


class SimulationError(RuntimeError):
    """Raised on executor/engine inconsistencies (schedule violations)."""
