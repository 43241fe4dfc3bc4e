#!/usr/bin/env python
"""Study: cache liveness vs the paper's static capacity accounting.

The Section 3.3 dynamic program charges each cached intermediate result
its space once, but a result whose edge ends up with realized relative
retiming ``R(i) - R(j) > 0`` keeps ``R(i) - R(j) + 1`` instances alive
concurrently. The discrete-event simulator exposes the consequence as
transient cache spills; ``ParaConv(liveness_aware=True)`` re-weights the
allocation in a second pass and eliminates them.

Usage::

    python examples/liveness_study.py [pes]
"""

import sys

from repro import ParaConv, PimConfig, synthetic_benchmark
from repro.sim.executor import ScheduleExecutor


def main() -> None:
    pes = int(sys.argv[1]) if len(sys.argv) > 1 else 32
    config = PimConfig(num_pes=pes, iterations=1000)
    executor = ScheduleExecutor(config)

    print(f"Machine: {config.describe()}\n")
    print(f"{'benchmark':<16} {'mode':<9} {'cached':>6} {'peak':>5} "
          f"{'spills':>6} {'total time':>10} {'slowdown':>8}")
    for name in ("cat", "flower", "character-1", "shortest-path", "protein"):
        graph = synthetic_benchmark(name)
        for aware in (False, True):
            result = ParaConv(config, liveness_aware=aware).run(graph)
            trace = executor.execute(result, iterations=15)
            mode = "liveness" if aware else "paper"
            print(f"{name:<16} {mode:<9} {result.num_cached:>6} "
                  f"{trace.cache_peak_slots:>5} {trace.cache_spills:>6} "
                  f"{result.total_time():>10} {trace.slowdown:>8.3f}")

    print("\nReading the table: the paper-accounting rows overflow the cache "
          "transiently (spills absorbed by retiming slack, so no slowdown); "
          "the liveness-aware rows cache fewer, longer-lived results and "
          "never overflow, at equal or better total time.")


if __name__ == "__main__":
    main()
