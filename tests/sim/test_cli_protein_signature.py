"""The full aggregate signature of the ``cli-protein`` run.

``python -m repro protein --pes 64 --iterations 1000 --simulate 200``
simulates 200 iterations of the largest paper graph in the full-unroll
mode with a ``NullSink``. ``tests/golden/sim_signatures.json`` stops at
N=20 on 16-PE machines, so this case is pinned here: every exact
aggregate of the run, as the simulator produced it before its pFIFO
entries became edge rids.
"""

from __future__ import annotations

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

EXPECTED = {
    "iterations": 200,
    "analytic_makespan": 15620,
    "realized_makespan": 15620,
    "stats": {
        "alu_ops": 221800,
        "cache_accesses": 6432,
        "cache_bytes": 5119852,
        "edram_accesses": 283368,
        "edram_bytes": 639868948,
        "fifo_pushes": 98458,
    },
    "cache_peak_slots": 128,
    "cache_spills": 5568,
    "events_processed": 508200,
    "num_instances": 109200,
    "num_transfers": 289800,
    "busy_units": 221800,
    "lateness_total": 568139,
    "lateness_max": 44,
    "pes_used": tuple(range(16)),
    "energy_total_pj": 3844444440.0,
}


def test_cli_protein_aggregate_signature():
    config = PimConfig(num_pes=64, iterations=1000)
    plan = ParaConv(config).run(load_workload("protein"))
    executor = ScheduleExecutor(config)
    assert executor.mode is SimMode.FULL_UNROLL  # what the CLI runs
    trace = executor.execute(plan, iterations=200, sink=NullSink())
    assert trace.aggregate_signature() == EXPECTED
    assert trace.rounds_fast_forwarded == 0
