"""Heterogeneous-array experiment: SPARTA on its home turf (extension).

The paper evaluates against SPARTA on a *homogeneous* PE array, although
SPARTA was designed for heterogeneous many-cores. This experiment levels
the field: a big.LITTLE-style PIM array (half the PEs at nominal speed,
half slower), a heterogeneity-aware (HEFT-dispatch) SPARTA, and Para-CONV
with a speed-aware kernel compactor. Both schemes map one iteration across
the full array.

Expected shape: the gap narrows relative to the homogeneous machine (the
baseline's placement intelligence finally matters) but Para-CONV still
wins -- retiming removes the demand-fetch stalls regardless of PE speeds.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.cnn.workloads import load_workload
from repro.core.allocation import AllocationProblem, dp_allocate
from repro.core.baseline import SpartaScheduler
from repro.core.retiming import analyze_edges, placed_deltas, solve_retiming
from repro.core.schedule import PeriodicSchedule
from repro.core.scheduler import (
    compact_kernel_schedule_heterogeneous,
    list_schedule_heterogeneous,
)
from repro.eval.reporting import format_table
from repro.pim.config import PimConfig
from repro.pim.heterogeneous import HeterogeneousArray, big_little
from repro.pim.memory import Placement


@dataclass(frozen=True)
class HeterogeneityRow:
    benchmark: str
    little_speed: float
    paraconv_time: int
    sparta_time: int
    paraconv_period: int
    sparta_period: int
    max_retiming: int

    @property
    def improvement_percent(self) -> float:
        if self.sparta_time == 0:
            return 0.0
        return (self.sparta_time - self.paraconv_time) / self.sparta_time * 100.0


def paraconv_heterogeneous(
    graph, array: HeterogeneousArray
) -> Tuple[PeriodicSchedule, int]:
    """Full-array Para-CONV on a heterogeneous array.

    Same pipeline as :meth:`ParaConv.run_at_width`, with the speed-aware
    compactor; returns the schedule and its total time for the configured
    iteration count.
    """
    config = array.config
    kernel = compact_kernel_schedule_heterogeneous(graph, array)
    timings = analyze_edges(graph, kernel, config)
    problem = AllocationProblem.from_timings(timings, config.total_cache_slots)
    allocation = dp_allocate(problem)
    solution = solve_retiming(
        graph, placed_deltas(timings, allocation.placements)
    )
    schedule = PeriodicSchedule(
        graph=graph,
        kernel=kernel,
        retiming=solution.vertex_retiming,
        edge_retiming=solution.edge_retiming,
        placements=dict(allocation.placements),
        transfer_times={
            key: timing.transfer_for(allocation.placements[key])
            for key, timing in timings.items()
        },
    )
    return schedule, schedule.total_time(config.iterations)


def sparta_heterogeneous(graph, array: HeterogeneousArray) -> Tuple[int, int]:
    """Heterogeneity-aware SPARTA: HEFT dispatch with demand-fetch stalls.

    Returns ``(iteration_length, total_time)`` at full-array mapping.
    """
    config = array.config
    helper = SpartaScheduler(config)
    sensors = helper._characterize(graph)
    placements = helper._allocate_cache(
        graph, sensors, config.total_cache_slots
    )
    stalls: Dict[int, int] = {}
    for op in graph.operations():
        stall = 0
        for edge in graph.in_edges(op.op_id):
            if placements[edge.key] is Placement.CACHE:
                stall += config.cache_transfer_units(edge.size_bytes)
            else:
                stall += config.edram_transfer_units(edge.size_bytes)
        stalls[op.op_id] = stall
    kernel = list_schedule_heterogeneous(
        graph, array, extra_occupancy=stalls
    )
    return kernel.period, kernel.period * config.iterations


def run_heterogeneity(
    base_config: Optional[PimConfig] = None,
    benchmarks: Sequence[str] = ("flower", "character-1", "shortest-path"),
    pes: int = 16,
    little_speeds: Sequence[float] = (1.0, 0.5, 0.25),
) -> List[HeterogeneityRow]:
    """Sweep the big/little speed gap; 1.0 degenerates to homogeneous."""
    config = (base_config or PimConfig()).with_pes(pes)
    rows: List[HeterogeneityRow] = []
    for little in little_speeds:
        array = big_little(config, big_fraction=0.5, little_speed=little)
        for name in benchmarks:
            graph = load_workload(name)
            schedule, para_total = paraconv_heterogeneous(graph, array)
            sparta_period, sparta_total = sparta_heterogeneous(graph, array)
            rows.append(
                HeterogeneityRow(
                    benchmark=name,
                    little_speed=little,
                    paraconv_time=para_total,
                    sparta_time=sparta_total,
                    paraconv_period=schedule.period,
                    sparta_period=sparta_period,
                    max_retiming=schedule.max_retiming,
                )
            )
    return rows


def render_heterogeneity(rows: Sequence[HeterogeneityRow]) -> str:
    headers = [
        "benchmark", "little speed", "Para-CONV", "SPARTA", "IMP%",
        "Para p", "SPARTA L", "R_max",
    ]
    body = [
        [
            r.benchmark, r.little_speed, r.paraconv_time, r.sparta_time,
            r.improvement_percent, r.paraconv_period, r.sparta_period,
            r.max_retiming,
        ]
        for r in rows
    ]
    return format_table(
        headers, body,
        title="Heterogeneous big.LITTLE PIM (extension): speed-aware "
        "schemes at full-array mapping",
    )
