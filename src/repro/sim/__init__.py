"""Discrete-event execution of periodic schedules on the PIM machine model.

The analytic model of :mod:`repro.core` predicts schedule lengths from
closed-form timing; this package *executes* those schedules event by event
against the stateful machine models of :mod:`repro.pim` -- PE busy
timelines, cache residency, eDRAM vault queueing, crossbar port contention
-- and measures what actually happens. The validation experiment (A2 in
DESIGN.md) compares the two.
"""

from repro.sim.engine import SimulationError
from repro.sim.executor import (
    ExecutionTrace,
    PeFaultError,
    ScheduleExecutor,
)
from repro.sim.modes import SimMode
from repro.sim.sinks import (
    CountingSink,
    FastForwardNotice,
    InMemorySink,
    NullSink,
    RingBufferSink,
    SamplingWindowSink,
    TraceSink,
)
from repro.sim.trace import InstanceRecord, TransferKind

__all__ = [
    "CountingSink",
    "ExecutionTrace",
    "FastForwardNotice",
    "InMemorySink",
    "InstanceRecord",
    "NullSink",
    "PeFaultError",
    "RingBufferSink",
    "SamplingWindowSink",
    "ScheduleExecutor",
    "SimMode",
    "SimulationError",
    "TraceSink",
    "TransferKind",
]
