"""Typed SLO classes and per-class admission policy.

A production serving tier never treats all traffic equally: interactive
requests need bounded queueing delay, batch traffic tolerates deep queues
in exchange for throughput. The fleet router admission-controls *by
class* — each :class:`SloClass` carries its own queue-depth bound and an
optional dispatch deadline — so a flood of batch work can never push an
interactive request into an unbounded queue, and a request that already
blew its deadline while queued is *shed* (counted, surfaced, never
silently dropped) instead of wasting shard time.

The class is a dict key on every request's path (policy, per-class
queue depth, admission counter, latency grouping), so :class:`SloClass`
hashes by identity: ``Enum.__hash__`` hashes the member name in Python
on every lookup.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, Optional


class SloClass(enum.Enum):
    """Service classes, strictest first."""

    INTERACTIVE = "interactive"
    STANDARD = "standard"
    BATCH = "batch"

    # Members are singletons compared by identity (unpickling returns the
    # same member), so the identity hash agrees with ``==``.
    __hash__ = object.__hash__

    @classmethod
    def from_name(cls, name: "str | SloClass") -> "SloClass":
        if isinstance(name, cls):
            return name
        try:
            return cls(str(name).lower())
        except ValueError:
            known = ", ".join(c.value for c in cls)
            raise ValueError(
                f"unknown SLO class {name!r}; known: {known}"
            ) from None


@dataclass(frozen=True)
class SloPolicy:
    """Admission policy for one SLO class.

    Attributes:
        max_queue_depth: fleet-wide bound on requests of this class that
            may be queued at once; beyond it :class:`FleetAdmissionError`
            is raised (typed backpressure, exactly like the single-server
            :class:`~repro.runtime.server.QueueFullError`).
        deadline_units: maximum *queueing* age in simulated time units a
            request of this class may reach before a shard dispatches it;
            older requests are shed at dispatch time. ``None`` disables
            shedding for the class.
    """

    max_queue_depth: int
    deadline_units: Optional[int] = None

    def __post_init__(self) -> None:
        if self.max_queue_depth < 1:
            raise ValueError("max_queue_depth must be >= 1")
        if self.deadline_units is not None and self.deadline_units < 1:
            raise ValueError("deadline_units must be >= 1 (or None)")


#: Defaults sized for the bench fleet: interactive queues stay shallow,
#: batch queues absorb bursts. No class sheds by default — deadlines are
#: an opt-in policy choice (the bench CLI exposes them per class).
DEFAULT_SLO_POLICIES: Dict[SloClass, SloPolicy] = {
    SloClass.INTERACTIVE: SloPolicy(max_queue_depth=4096),
    SloClass.STANDARD: SloPolicy(max_queue_depth=8192),
    SloClass.BATCH: SloPolicy(max_queue_depth=32768),
}


class FleetAdmissionError(RuntimeError):
    """Typed per-class backpressure: this SLO class's queue is full.

    Carries the class and its bound so a client can back off per class
    (batch overload must not trigger interactive retries).
    """

    def __init__(self, slo: SloClass, depth: int, limit: int, workload: str):
        self.slo = slo
        self.depth = depth
        self.limit = limit
        self.workload = workload
        super().__init__(
            f"{slo.value} admission queue full ({depth}/{limit}); "
            f"rejecting request for {workload!r}"
        )
