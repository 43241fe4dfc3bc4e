#!/usr/bin/env python
"""Define a custom PIM machine and validate a schedule on the simulator.

Shows the lower-level API surface: building a custom machine description,
running the pipeline at an explicit PE-group width, executing the
resulting schedule event by event on the stateful machine model (vault
queueing, cache residency, PE timelines), and pricing the traffic with
the energy model.

Usage::

    python examples/custom_machine_simulation.py
"""

from repro import ParaConv, PimConfig, synthetic_benchmark
from repro.pim.energy import EnergyModel
from repro.sim.executor import ScheduleExecutor


def main() -> None:
    # A low-end machine: 8 PEs, 2 KiB of cache each, 16 slow (8x) vaults.
    config = PimConfig(
        num_pes=8,
        num_vaults=16,
        cache_bytes_per_pe=2048,
        edram_latency_factor=8,
        edram_energy_factor=8,
        iterations=500,
    )
    graph = synthetic_benchmark("character-1")
    print(f"Machine: {config.describe()}")
    print(f"Workload: {graph.name} ({graph.num_vertices} ops)\n")

    # Pin the mapping to the full array instead of letting the pipeline
    # optimize the group width.
    result = ParaConv(config).run_at_width(graph, width=8)
    print(result.summary())

    # Execute 25 iterations on the discrete-event machine model.
    executor = ScheduleExecutor(config)
    trace = executor.execute(result, iterations=25)
    print(f"\nSimulation: {trace.events_processed} events")
    print(f"  analytic makespan : {trace.analytic_makespan} units")
    print(f"  realized makespan : {trace.realized_makespan} units "
          f"(slowdown {trace.slowdown:.3f})")
    print(f"  max lateness      : {trace.max_lateness} units")
    print(f"  cache peak        : {trace.cache_peak_slots} slots "
          f"({trace.cache_spills} transient spills)")
    print(f"  PE utilization    : {trace.pe_utilization() * 100:.1f}%")
    print(f"  traffic           : {trace.stats.cache_bytes} B on-chip, "
          f"{trace.stats.edram_bytes} B off-chip "
          f"({trace.stats.offchip_fraction * 100:.1f}% off-chip)")

    report = trace.energy(EnergyModel())
    print(f"  movement energy   : {report.movement_pj / 1e6:.2f} uJ "
          f"({report.edram_pj / report.movement_pj * 100:.1f}% spent on eDRAM)")


if __name__ == "__main__":
    main()
