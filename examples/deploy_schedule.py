#!/usr/bin/env python
"""Compile once, deploy many: schedule serialization workflow.

A Para-CONV schedule is a static artifact -- kernel placements, retiming
function, intermediate-result placements. This example compiles one,
serializes it to JSON (the deployable artifact), reloads it as a separate
"runtime" would, verifies it semantically, and executes it on the machine
model. Along the way it renders the pipelined run so the software-pipeline
structure is visible.

Usage::

    python examples/deploy_schedule.py [workload] [pes]
"""

import sys
import tempfile
from pathlib import Path

from repro import ParaConv, PimConfig, load_workload
from repro.core.expansion import expand, verify_expansion
from repro.core.gantt import render_expanded
from repro.core.schedule_io import schedule_from_json, schedule_to_json
from repro.sim.executor import ScheduleExecutor


def main() -> None:
    workload = sys.argv[1] if len(sys.argv) > 1 else "cat"
    pes = int(sys.argv[2]) if len(sys.argv) > 2 else 8
    config = PimConfig(num_pes=pes, iterations=1000)

    # --- compile ------------------------------------------------------
    graph = load_workload(workload)
    result = ParaConv(config, liveness_aware=True).run(graph)
    print(f"Compiled {workload!r}: period {result.period}, "
          f"R_max {result.max_retiming}, "
          f"{result.num_cached} cached intermediate results")

    # --- serialize / reload (what a runtime would load) ---------------
    with tempfile.TemporaryDirectory() as tmp:
        artifact = Path(tmp) / "schedule.json"
        schedule_to_json(result.schedule, artifact)
        print(f"Serialized schedule: {artifact.stat().st_size} bytes of JSON")
        schedule = schedule_from_json(artifact)  # validates on load

    # --- verify analytically ------------------------------------------
    expanded = expand(schedule, iterations=4)
    verify_expansion(expanded)
    print(f"Verified expansion: {len(expanded.instances)} instances over "
          f"{expanded.num_rounds} rounds, makespan {expanded.makespan}")
    print("\nPipelined run (prologue fills, then steady state):")
    print(render_expanded(schedule, iterations=3, max_columns=60))

    # --- execute on the machine model ----------------------------------
    trace = ScheduleExecutor(config).execute(
        result, iterations=10
    )
    print(f"\nExecuted 10 iterations on the simulated machine: "
          f"slowdown {trace.slowdown:.3f}, spills {trace.cache_spills}, "
          f"PE utilization {trace.pe_utilization() * 100:.1f}%")


if __name__ == "__main__":
    main()
