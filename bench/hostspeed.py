"""Host-speed probe: takes the machine's own speed swings out of timings.

On the shared 2-vCPU VM this benchmark was built on, the same pure-Python
work runs up to 1.7x slower for seconds to minutes at a time (other
tenants on the physical core), with no sign of it inside the VM: CPU time
tracks wall time and steal time stays 0. Raw times of one workload spread
10-35 % between runs, wider than any useful regression bound.

A small fixed kernel in the interpreter's own mix of work (dict updates,
tuple allocation, heap operations) slows down by the same factor. While a
timed section runs, a ``SIGALRM`` timer runs the kernel every
:data:`SAMPLE_INTERVAL_S`; three runs before and three after the section
cover short sections. The section's *work* seconds exclude the kernel
runs inside it, and

    factor = trimmed mean of the kernel times / REFERENCE_SECONDS

(the slowest tenth of the kernel runs is dropped: a run hit by an
interrupt says nothing about the host's speed). Reported times are
*host-normalized seconds*, work seconds divided by the factor: seconds on
a host where the kernel takes :data:`REFERENCE_SECONDS`, which is what it
takes on that VM when nothing slows it. The raw seconds and the factor
are reported beside them.
"""

from __future__ import annotations

import heapq
import signal
import statistics
import time
from dataclasses import dataclass
from typing import Callable, List, Tuple, TypeVar

#: seconds of one kernel run on the baseline host (2.1 GHz Xeon VM).
REFERENCE_SECONDS = 0.001
#: wall seconds between kernel runs inside a timed section (~2 % of it).
SAMPLE_INTERVAL_S = 0.05
#: kernel runs before and after every section.
BRACKET_SAMPLES = 3

T = TypeVar("T")


def probe() -> float:
    """Seconds one run of the fixed kernel takes now."""
    started = time.perf_counter()
    heap: list = []
    table: dict = {}
    total = 0
    for i in range(1500):
        key = (i * 7919) % 1009
        table[key] = table.get(key, 0) + i
        heapq.heappush(heap, (key, i))
        if len(heap) > 64:
            total += heapq.heappop(heap)[1]
    return time.perf_counter() - started


def host_factor(samples: List[float]) -> float:
    """Slowdown of this host against the baseline host, from kernel times."""
    ordered = sorted(samples)
    kept = ordered[: max(1, int(len(ordered) * 0.9))]
    return statistics.fmean(kept) / REFERENCE_SECONDS


@dataclass(frozen=True)
class Timing:
    """One timed section."""

    #: seconds of the section's own work (kernel runs inside it excluded).
    work: float
    #: wall seconds of the section, kernel runs inside it included.
    elapsed: float
    #: host slowdown while it ran (1.0 = the baseline host, unslowed).
    factor: float

    @property
    def normalized(self) -> float:
        return self.work / self.factor


def timed(section: Callable[[], T]) -> Tuple[T, Timing]:
    """Run ``section`` under the sampling timer (main thread only)."""
    samples = [probe() for _ in range(BRACKET_SAMPLES)]
    during: List[float] = []

    def on_timer(signum, frame) -> None:
        during.append(probe())

    previous = signal.signal(signal.SIGALRM, on_timer)
    signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
    started = time.perf_counter()
    try:
        result = section()
    finally:
        elapsed = time.perf_counter() - started
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)
    samples += during + [probe() for _ in range(BRACKET_SAMPLES)]
    return result, Timing(elapsed - sum(during), elapsed, host_factor(samples))
