"""cProfile-backed hotspot tables for the three hot paths.

``python -m repro.eval profile [compile|sim|serve]`` answers "where does
the time actually go?" without leaving the repo's CLI surface: it runs a
representative workload under :mod:`cProfile` and renders the top-N
functions by cumulative time. The three targets are the repo's three hot
paths:

* ``compile`` — a cold :class:`~repro.core.paraconv.ParaConv` compile
  of ``protein`` (546 ops) with the default dynamic-programming
  allocator, the path the CLI and the benchmark's compile sweep take
  (the per-width pass pipeline is the hot loop). It compiles a copy of
  the workload with its own graph facts, so no kernel, floor or edge
  timing an earlier compile in the process kept is reused.
* ``sim`` — a discrete-event run of the produced plan (the per-round
  event hot loop), as a full unroll by default. The default workload is
  the small ``lenet5`` (7 ops), so the table shows the engine's cost per
  event rather than a paper-scale graph; pass a workload for that.
* ``serve`` — one seeded open-loop trace through a four-shard fleet
  (:func:`repro.fleet.__main__.build_fleet`, the fleet CLI's default
  workload mix, :class:`~repro.fleet.loadgen.FleetLoadGenerator`, then
  submit/pump/drain). Every plan is compiled before the profiled region,
  so the table shows the per-request cost of the router, the shard
  servers and the sessions, not the compiler.

The rows come back as data (:class:`ProfileRow`) so tests can assert on
the harness without parsing the rendered table, and so a future PR can
diff trajectories of hotspot tables the same way it diffs BENCH files.
"""

from __future__ import annotations

import cProfile
import io
import pstats
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.cnn.workloads import load_workload
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink

#: profile targets, in the order the bare ``profile`` experiment runs them.
PROFILE_TARGETS: Tuple[str, ...] = ("compile", "sim", "serve")

#: default workload per target: large enough that the hot loops dominate
#: the table. ``serve`` defaults to the fleet CLI's mix, resolved when it
#: runs so that the other targets never import the fleet.
DEFAULT_PROFILE_WORKLOADS: Dict[str, str] = {
    "compile": "protein",
    "sim": "lenet5",
}

#: fleet shape of the ``serve`` target: the fleet CLI's default shards,
#: batch window and arrival rate.
SERVE_WORKERS = 4
SERVE_BATCH_WINDOW = 512
SERVE_PUMP_EVERY = 512
SERVE_INTERARRIVAL_UNITS = 8


@dataclass(frozen=True)
class ProfileRow:
    """One function in the hotspot table."""

    function: str  #: ``module:lineno(name)`` as pstats prints it
    calls: int
    total_seconds: float  #: time in the function itself (tottime)
    cumulative_seconds: float  #: time including callees (cumtime)


@dataclass(frozen=True)
class PlanBatches:
    """How one plan on one machine served its batches (``serve`` only)."""

    plan: str  #: plan-cache key digest, shortened
    machine: str  #: PEs, vaults and config fingerprint, shortened
    converging: int  #: simulations (not boundary resumes) that converged
    resumed: int  #: batches resumed from the plan's steady boundary
    prefix: int  #: batches simulated from a stored prefix state
    reused: int  #: batches served from a stored trace of the same N


@dataclass
class ProfileReport:
    """Top-N hotspots of one profiled target."""

    target: str
    workload: str
    seconds: float  #: wall time of the profiled region
    rows: List[ProfileRow]
    plans: List[PlanBatches] = field(default_factory=list)

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
        if self.plans:
            lines += [
                "",
                "## Batches per plan and machine",
                "",
                f"{'plan':<12}  {'machine':<20}  {'converging':>10}  "
                f"{'resumed':>7}  {'prefix':>6}  {'reused':>6}",
            ]
            lines += [
                f"{p.plan:<12}  {p.machine:<20}  {p.converging:>10}  "
                f"{p.resumed:>7}  {p.prefix:>6}  {p.reused:>6}"
                for p in self.plans
            ]
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
    requests: int = 8000,
) -> ProfileReport:
    """Profile one hot path and return its hotspot table.

    Args:
        target: ``"compile"``, ``"sim"`` or ``"serve"``.
        config: machine; defaults to 64 PEs at N=1000 (the perf-bench
            configuration, so the table matches the BENCH trajectories).
            The ``serve`` target splits its PEs and vaults across the
            fleet's shards.
        workload: workload name to compile / simulate; defaults to the
            target's entry in :data:`DEFAULT_PROFILE_WORKLOADS`. For
            ``serve``, a comma-separated mix (default: the fleet CLI's).
        top: number of hotspot rows to keep.
        sim_mode: simulation mode for the ``sim`` target (any
            :meth:`~repro.sim.modes.SimMode.from_name` name).
        allocator: allocator spec for the ``compile`` target; the
            default dynamic program when omitted.
        requests: trace length for the ``serve`` target.
    """
    if target not in PROFILE_TARGETS:
        raise ValueError(
            f"unknown profile target {target!r}; expected one of "
            f"{', '.join(PROFILE_TARGETS)}"
        )
    machine = config or PimConfig(num_pes=64, iterations=1000)
    if target == "serve":
        return _profile_serve(machine, workload, top, requests)
    workload = workload or DEFAULT_PROFILE_WORKLOADS[target]
    graph = load_workload(workload)
    if target == "compile":
        # A copy has its own graph facts: whatever this process compiled
        # before, the profiled compile builds every kernel it visits.
        graph = graph.copy()

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


def _profile_serve(
    machine: PimConfig,
    workload: Optional[str],
    top: int,
    requests: int,
) -> ProfileReport:
    """Profile one seeded fleet trace on warm shards."""
    import tempfile

    from repro.fleet.__main__ import DEFAULT_WORKLOADS, build_fleet
    from repro.fleet.loadgen import FleetLoadGenerator
    from repro.fleet.store import SharedPlanStore

    mix = [name.strip() for name in (workload or DEFAULT_WORKLOADS).split(",")]
    generator = FleetLoadGenerator(
        mix, mean_interarrival_units=SERVE_INTERARRIVAL_UNITS, seed=0
    )
    with tempfile.TemporaryDirectory(prefix="profile-serve-") as store_dir:
        # One shard may hold the whole trace, and a pump every 512
        # requests keeps each SLO class under its default depth bound, so
        # nothing pushes back.
        router = build_fleet(
            SERVE_WORKERS, machine.num_pes, machine.num_vaults,
            SharedPlanStore(store_dir),
            batch_window=SERVE_BATCH_WINDOW,
            max_queue=max(requests, len(mix)),
        )
        # Compile every plan before the profiled region.
        for name in mix:
            router.submit(name)
        router.drain()

        def driver() -> object:
            for index, trace in enumerate(generator.requests(requests), 1):
                router.advance_to(trace.arrival_units)
                router.submit(
                    trace.workload, iterations=trace.iterations, slo=trace.slo
                )
                if index % SERVE_PUMP_EVERY == 0:
                    router.pump()
            return router.drain()

        seconds, rows = _profile_callable(driver, top)
        plans = _plan_batches(router)
    return ProfileReport(
        target="serve", workload=",".join(mix), seconds=seconds, rows=rows,
        plans=plans,
    )


def _plan_batches(router) -> List[PlanBatches]:
    """Per (plan, machine): how the fleet's sessions served their batches,
    over the warm-up and the trace."""
    counts: Dict[tuple, List[int]] = {}
    for worker in router.workers.values():
        for session in worker.server.sessions().values():
            key = (session.plan_digest, session.active_config)
            total = counts.setdefault(key, [0, 0, 0, 0])
            total[0] += session.converged_simulations
            total[1] += session.batches_resumed
            total[2] += session.prefix_resumes
            total[3] += session.batches_reused
    return [
        PlanBatches(
            plan=digest[:12],
            machine=(
                f"{config.num_pes}pe/{config.num_vaults}v@"
                f"{config.fingerprint()[:8]}"
            ),
            converging=converging,
            resumed=resumed,
            prefix=prefix,
            reused=reused,
        )
        for (digest, config), (converging, resumed, prefix, reused) in sorted(
            counts.items(), key=lambda item: item[0][0]
        )
    ]
