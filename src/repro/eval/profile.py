"""cProfile-backed hotspot tables for the two hot paths.

``python -m repro.eval profile [compile|sim]`` answers "where does the
time actually go?" without leaving the repo's CLI surface: it runs a
representative workload under :mod:`cProfile` and renders the top-N
functions by cumulative time. The two targets are the repo's two hot
paths:

* ``compile`` — a cold :class:`~repro.core.paraconv.ParaConv` compile
  of ``protein`` (546 ops) with the default dynamic-programming
  allocator, the path the CLI and the benchmark's compile sweep take
  (the per-width pass pipeline is the hot loop).
* ``sim`` — a paper-scale discrete-event run of the produced plan
  (the per-round event hot loop), as a full unroll by default.

The rows come back as data (:class:`ProfileRow`) so tests can assert on
the harness without parsing the rendered table, and so a future PR can
diff trajectories of hotspot tables the same way it diffs BENCH files.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

#: profile targets, in the order the bare ``profile`` experiment runs them.
PROFILE_TARGETS: Tuple[str, ...] = ("compile", "sim")

#: default workload per target: large enough that the hot loops dominate
#: the table.
DEFAULT_PROFILE_WORKLOADS: Dict[str, str] = {
    "compile": "protein",
    "sim": "lenet5",
}


@dataclass(frozen=True)
class ProfileRow:
    """One function in the hotspot table."""

    function: str  #: ``module:lineno(name)`` as pstats prints it
    calls: int
    total_seconds: float  #: time in the function itself (tottime)
    cumulative_seconds: float  #: time including callees (cumtime)


@dataclass
class ProfileReport:
    """Top-N hotspots of one profiled target."""

    target: str
    workload: str
    seconds: float  #: wall time of the profiled region
    rows: List[ProfileRow]

    def render(self) -> str:
        lines = [
            f"## Hotspots: {self.target} ({self.workload}, "
            f"{self.seconds:.3f}s profiled)",
            "",
            f"{'calls':>10}  {'tottime':>9}  {'cumtime':>9}  function",
        ]
        for row in self.rows:
            lines.append(
                f"{row.calls:>10}  {row.total_seconds:>9.4f}  "
                f"{row.cumulative_seconds:>9.4f}  {row.function}"
            )
        return "\n".join(lines)


def _profile_callable(fn: Callable[[], object], top: int) -> Tuple[float, List[ProfileRow]]:
    """Run ``fn`` under cProfile; return (wall seconds, top-N rows)."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        fn()
    finally:
        profiler.disable()
    stats = pstats.Stats(profiler, stream=io.StringIO())
    stats.sort_stats(pstats.SortKey.CUMULATIVE)
    rows: List[ProfileRow] = []
    for func in stats.fcn_list[:top]:  # type: ignore[attr-defined]
        cc, ncalls, tottime, cumtime, _callers = stats.stats[func]  # type: ignore[attr-defined]
        filename, lineno, name = func
        rows.append(ProfileRow(
            function=f"{filename}:{lineno}({name})",
            calls=ncalls,
            total_seconds=tottime,
            cumulative_seconds=cumtime,
        ))
    return stats.total_tt, rows  # type: ignore[attr-defined]


def run_profile(
    target: str,
    config: Optional[PimConfig] = None,
    *,
    workload: Optional[str] = None,
    top: int = 15,
    sim_mode: str = "full",
    allocator: Optional[str] = None,
) -> ProfileReport:
    """Profile one hot path and return its hotspot table.

    Args:
        target: ``"compile"`` or ``"sim"``.
        config: machine; defaults to 64 PEs at N=1000 (the perf-bench
            configuration, so the table matches the BENCH trajectories).
        workload: workload name to compile / simulate; defaults to the
            target's entry in :data:`DEFAULT_PROFILE_WORKLOADS`.
        top: number of hotspot rows to keep.
        sim_mode: simulation mode for the ``sim`` target (any
            :meth:`~repro.sim.modes.SimMode.from_name` name).
        allocator: allocator spec for the ``compile`` target; the
            default dynamic program when omitted.
    """
    if target not in PROFILE_TARGETS:
        raise ValueError(
            f"unknown profile target {target!r}; expected one of "
            f"{', '.join(PROFILE_TARGETS)}"
        )
    machine = config or PimConfig(num_pes=64, iterations=1000)
    workload = workload or DEFAULT_PROFILE_WORKLOADS[target]
    graph = load_workload(workload)
    if target == "compile":
        def driver() -> object:
            return ParaConv(machine, allocator_name=allocator).run(graph)
    else:
        plan = ParaConv(machine).run(graph)
        mode = SimMode.from_name(sim_mode)

        def driver() -> object:
            executor = ScheduleExecutor(machine, mode=mode)
            return executor.execute(
                plan, iterations=machine.iterations, sink=NullSink()
            )

    seconds, rows = _profile_callable(driver, top)
    return ProfileReport(
        target=target, workload=workload, seconds=seconds, rows=rows
    )
