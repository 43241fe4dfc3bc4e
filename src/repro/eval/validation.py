"""Validation A2: discrete-event execution vs the analytic model.

The tables report analytic schedule lengths; this experiment executes the
same schedules on the stateful machine model (vault queueing, cache
residency, PE timelines) and reports the realized/analytic slowdown plus
the observed lateness. A slowdown of 1.0 with bounded lateness means the
closed-form numbers are trustworthy on the modelled machine.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.eval.reporting import format_table
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

#: A representative subset (the default keeps quick runs quick; with the
#: steady-state engine the full twelve are affordable too).
DEFAULT_BENCHMARKS = (
    "cat",
    "flower",
    "character-1",
    "image-compress",
    "shortest-path",
    "protein",
)


@dataclass(frozen=True)
class ValidationRow:
    benchmark: str
    pes: int
    analytic: int
    realized: int
    slowdown: float
    max_lateness: int
    cache_spills: int
    pe_utilization: float
    #: round at which the machine fingerprint converged (None: never, or
    #: full-unroll mode).
    converged_round: Optional[int] = None
    #: converged rounds the engine replayed analytically.
    rounds_fast_forwarded: int = 0


def run_validation(
    base_config: Optional[PimConfig] = None,
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS,
    pes: int = 32,
    iterations: int = 20,
    sim_mode: Union[str, SimMode] = SimMode.STEADY_STATE,
) -> List[ValidationRow]:
    """Execute every benchmark's schedule and compare against the model.

    ``sim_mode`` selects the engine: ``steady`` (default) fast-forwards
    converged rounds, ``full`` is the event-by-event oracle. Aggregates
    -- and hence every column here -- are identical between the two.
    """
    config = (base_config or PimConfig()).with_pes(pes)
    executor = ScheduleExecutor(config, mode=SimMode.from_name(sim_mode))
    rows: List[ValidationRow] = []
    for name in benchmarks:
        graph = load_workload(name)
        result = ParaConv(config).run(graph)
        # The row only needs aggregates; drop per-record data.
        trace = executor.execute(result, iterations=iterations, sink=NullSink())
        rows.append(
            ValidationRow(
                benchmark=name,
                pes=pes,
                analytic=trace.analytic_makespan,
                realized=trace.realized_makespan,
                slowdown=trace.slowdown,
                max_lateness=trace.max_lateness,
                cache_spills=trace.cache_spills,
                pe_utilization=trace.pe_utilization(),
                converged_round=trace.converged_round,
                rounds_fast_forwarded=trace.rounds_fast_forwarded,
            )
        )
    return rows


def render_validation(rows: Sequence[ValidationRow]) -> str:
    headers = [
        "benchmark", "PEs", "analytic", "realized", "slowdown",
        "max lateness", "cache spills", "PE util", "conv round", "ff rounds",
    ]
    body = [
        [
            r.benchmark, r.pes, r.analytic, r.realized, r.slowdown,
            r.max_lateness, r.cache_spills, r.pe_utilization,
            "-" if r.converged_round is None else r.converged_round,
            r.rounds_fast_forwarded,
        ]
        for r in rows
    ]
    return format_table(
        headers, body,
        title="Validation A2: discrete-event execution vs analytic model",
    )
