"""The benchmark's four workloads: set-up, one repetition, output checks.

Each workload drives the program through a public entry point only:

* ``cli-protein`` -- ``repro.__main__.main`` on the largest paper graph,
  in process, with ``--simulate`` (the cold-CLI path);
* ``compile-sweep`` -- ``ParaConv(...).run(load_workload(...))`` over the
  paper and randwired graphs at two machine sizes, no simulation;
* ``serve-paper`` / ``serve-small`` -- an open-loop trace in virtual time
  through ``FleetRouter`` over four shards of one 64-PE machine sharing a
  ``SharedPlanStore``.

An *operation* is one CLI call, one compile cell or one admitted request.
It fails when it raises, is lost, or its output differs from the frozen
value in ``expected.json``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import re
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from bench import ROOT, SRC, TMP_ROOT
from bench.hostspeed import Timing, timed

#: the serving fleet: four equal shards of one 64-PE, 32-vault machine.
#: The default SLO policies set no deadline, so nothing is shed and every
#: admitted request must be served.
MACHINE_PES = 64
FLEET_WORKERS = 4
FLEET_VAULTS = 32


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile of ``values`` (``q`` in [0, 1])."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def tail_quantile(samples: int) -> Optional[float]:
    """The highest of p99 and p95 with at least ten samples beyond it."""
    for q in (0.99, 0.95):
        if samples * (1.0 - q) >= 10 - 1e-9:
            return q
    return None


def child_env() -> Dict[str, str]:
    """Environment that makes ``import repro`` resolve to this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p
    )
    return env


_COLD_IMPORT = (
    "import json\n"
    "from bench.hostspeed import timed\n"
    "_, timing = timed(lambda: __import__('repro.__main__'))\n"
    "print(json.dumps([timing.work, timing.elapsed, timing.factor]))\n"
)


def cold_import() -> Timing:
    """A fresh interpreter times its own ``import repro.__main__``.

    Timed in the child, not here: probes in this process while the child
    runs would compete with it for the core and read its load as host
    slowness.
    """
    done = subprocess.run(
        [sys.executable, "-c", _COLD_IMPORT], cwd=ROOT, env=child_env(),
        check=True, stdout=subprocess.PIPE, text=True,
    )
    return Timing(*json.loads(done.stdout))


def failure_note(exc: BaseException) -> str:
    frame = traceback.extract_tb(exc.__traceback__)[-1]
    return f"{type(exc).__name__}: {exc} ({frame.filename}:{frame.lineno})"


@dataclass
class Rep:
    """What one repetition of a workload produced."""

    #: operations attempted and how many of them failed.
    ops: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: wall seconds per operation.
    latencies: List[float] = field(default_factory=list)
    #: outputs frozen in ``expected.json`` (key -> value mapping).
    outputs: Dict[str, Any] = field(default_factory=dict)
    #: simulated-time results (exact: identical on every run of one seed).
    exact: Dict[str, int] = field(default_factory=dict)
    #: counters for the per-layer view that need no tracing.
    counts: Dict[str, float] = field(default_factory=dict)
    #: the whole repetition, timed by the runner (see :mod:`bench.hostspeed`).
    timing: Timing = Timing(work=0.0, elapsed=0.0, factor=1.0)

    @property
    def seconds(self) -> float:
        """Host-normalized seconds of the repetition."""
        return self.timing.normalized


class Workload:
    """One named workload. Subclasses define :meth:`rep` and :meth:`setup`
    (or :meth:`timed_setup`, for a set-up that times itself); the other
    hooks have defaults."""

    name: str = ""
    #: ``expected.json`` key of the repetition's outputs.
    key: str = ""
    #: repetitions measured even when they overrun ``--seconds``.
    min_reps: int = 3

    def setup(self) -> None:
        """Run one set-up from cold."""
        raise NotImplementedError

    def timed_setup(self) -> Timing:
        """One cold set-up and its timing."""
        return timed(self.setup)[1]

    def prepare(self, seed: int) -> None:
        """Build the run's inputs from ``seed`` and import what the timed
        sections call (untimed, before the first set-up)."""

    def rep(self) -> Rep:
        raise NotImplementedError

    def frozen(self, rep: Rep) -> Dict[str, Any]:
        """The ``expected.json`` entries this repetition's outputs define."""
        return {self.key: rep.outputs} if rep.outputs else {}

    def entry_ops(self, rep: Rep) -> int:
        """Operations one wrong ``expected.json`` entry stands for."""
        return 1

    def check(self, rep: Rep, expected: Dict[str, Any]) -> None:
        """Count the operations whose outputs differ from ``expected``.

        Keys absent from ``expected`` (another seed, another size) are
        not checked: only the invariants inside :meth:`rep` hold there.
        """
        for key, got in self.frozen(rep).items():
            want = expected.get(key)
            if want is not None and got != want:
                rep.failed = min(rep.ops, rep.failed + self.entry_ops(rep))
                diff = {
                    name: (got.get(name), want.get(name))
                    for name in sorted(set(got) | set(want))
                    if got.get(name) != want.get(name)
                }
                rep.problems.append(f"{key}: (got, expected) {diff}")

    def close(self) -> None:
        """Release what :meth:`setup` left behind."""


# ----------------------------------------------------------------------
# cold CLI
# ----------------------------------------------------------------------
_SIM_LINE = re.compile(
    r"Simulated \d+ iterations: realized (\d+) vs analytic (\d+) "
    r"\(slowdown [\d.]+, max lateness (\d+), spills (\d+)\)"
)
_SUMMARY_FIELDS = {
    "period": re.compile(r"period p\s*: (\d+)"),
    "r_max": re.compile(r"R_max\s*: (\d+)"),
    "total_time": re.compile(r"total time\s*: (\d+)"),
}


def parse_cli_output(text: str) -> Dict[str, int]:
    """The numbers the CLI prints, as a dict (ValueError if absent)."""
    out = {}
    for key, pattern in _SUMMARY_FIELDS.items():
        match = pattern.search(text)
        if match is None:
            raise ValueError(f"CLI output has no {key!r} line")
        out[key] = int(match.group(1))
    match = _SIM_LINE.search(text)
    if match is None:
        raise ValueError("CLI output has no 'Simulated ...' line")
    for key, value in zip(
        ("realized_makespan", "analytic_makespan", "max_lateness", "spills"),
        match.groups(),
    ):
        out[key] = int(value)
    return out


class CliWorkload(Workload):
    """``python -m repro <argv>`` in process, stdout captured."""

    def __init__(self, name: str, argv: Sequence[str]):
        self.name = name
        self.argv = list(argv)
        self.key = "cli " + " ".join(self.argv)

    def timed_setup(self) -> Timing:
        return cold_import()

    def prepare(self, seed: int) -> None:
        import repro.__main__  # noqa: F401  (keep import cost out of rep 1)

    def rep(self) -> Rep:
        import repro.__main__ as cli

        rep = Rep(ops=1)
        buffer = io.StringIO()
        started = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(list(self.argv))
            rep.latencies.append(time.perf_counter() - started)
            if code != 0:
                raise RuntimeError(f"CLI exited {code}")
            rep.outputs = parse_cli_output(buffer.getvalue())
        except Exception as exc:  # an operation failed; keep measuring
            rep.failed = 1
            rep.problems.append(failure_note(exc))
            return rep
        rep.exact["makespan_units"] = rep.outputs["realized_makespan"]
        return rep


# ----------------------------------------------------------------------
# compile sweep
# ----------------------------------------------------------------------
class SweepWorkload(Workload):
    """Compile every (graph, machine size) cell; no simulation."""

    def __init__(
        self,
        name: str,
        graphs: Optional[Sequence[str]] = None,
        pes: Sequence[int] = (16, 64),
        iterations: int = 1000,
    ):
        self.name = name
        self.graphs = list(graphs) if graphs is not None else None
        self.pes = list(pes)
        self.iterations = iterations

    def timed_setup(self) -> Timing:
        return cold_import()

    def prepare(self, seed: int) -> None:
        from repro.cnn.workloads import PAPER_BENCHMARKS, RANDWIRED_BENCHMARKS

        if self.graphs is None:
            self.graphs = PAPER_BENCHMARKS + RANDWIRED_BENCHMARKS

    def cell_key(self, graph: str, pes: int) -> str:
        return f"sweep {graph} --pes {pes} --iterations {self.iterations}"

    def rep(self) -> Rep:
        from repro.cnn import workloads
        from repro.core.paraconv import ParaConv
        from repro.pim.config import PimConfig

        rep = Rep()
        for graph_name in self.graphs:
            for pes in self.pes:
                key = self.cell_key(graph_name, pes)
                rep.ops += 1
                started = time.perf_counter()
                try:
                    graph = workloads.load_workload(graph_name)
                    result = ParaConv(
                        PimConfig(num_pes=pes, iterations=self.iterations)
                    ).run(graph)
                    rep.latencies.append(time.perf_counter() - started)
                    rep.outputs[key] = {
                        "period": result.period,
                        "max_retiming": result.max_retiming,
                        "num_groups": result.num_groups,
                        "group_width": result.group_width,
                        "total_time": result.total_time(self.iterations),
                    }
                except Exception as exc:  # an operation failed; keep going
                    rep.failed += 1
                    rep.problems.append(f"{key}: {failure_note(exc)}")
        return rep

    def frozen(self, rep: Rep) -> Dict[str, Any]:
        return dict(rep.outputs)


# ----------------------------------------------------------------------
# fleet serving
# ----------------------------------------------------------------------
class ServeWorkload(Workload):
    """An open-loop trace through a four-shard fleet, in virtual time.

    Arrival gaps and SLO classes come from ``FleetLoadGenerator``. The
    graph of each request is drawn in shuffled blocks holding every mix
    graph once, so every seed serves exactly the same amount of each
    graph: a seed changes arrival times, order and classes, not the work.
    Host latency runs from the return of ``submit()`` to the return of the
    ``pump()``/``drain()`` call that yields the result.
    """

    def __init__(
        self,
        name: str,
        mix: Sequence[str],
        interarrival: int,
        batch_window: int,
        pump_every: int,
        requests: int,
        kill_worker: Optional[str] = None,
    ):
        self.name = name
        self.mix = list(mix)
        self.interarrival = interarrival
        self.batch_window = batch_window
        self.pump_every = pump_every
        self.requests = requests
        self.kill_worker = kill_worker
        self.store_dirs: List[str] = []
        self.trace: List[Tuple[int, str, Any]] = []

    def _fleet(self, store_dir: str):
        from repro.fleet.__main__ import build_fleet
        from repro.fleet.store import SharedPlanStore

        # One shard may hold the whole trace, so QueueFullError cannot
        # fire: it would skip a fleet id and break the id-keyed timing.
        return build_fleet(
            FLEET_WORKERS, MACHINE_PES, FLEET_VAULTS,
            SharedPlanStore(store_dir),
            batch_window=self.batch_window,
            max_queue=self.requests,
        )

    def setup(self) -> None:
        """Cold fleet on an empty store: compile and publish every plan.

        The repetitions serve from the last set-up's store, warm.
        """
        TMP_ROOT.mkdir(exist_ok=True)
        self.store_dirs.append(
            tempfile.mkdtemp(prefix=f"{self.name}-", dir=TMP_ROOT)
        )
        router = self._fleet(self.store_dirs[-1])
        for graph in self.mix:
            router.submit(graph)
        served = router.drain()
        if len(served) != len(self.mix):
            raise RuntimeError(
                f"set-up served {len(served)} of {len(self.mix)} requests"
            )

    def prepare(self, seed: int) -> None:
        from repro.fleet.__main__ import build_fleet  # noqa: F401
        from repro.fleet.loadgen import FleetLoadGenerator

        generator = FleetLoadGenerator(
            self.mix, mean_interarrival_units=self.interarrival, seed=seed
        )
        shuffler = random.Random(seed)
        order: List[str] = []
        while len(order) < self.requests:
            block = list(self.mix)
            shuffler.shuffle(block)
            order.extend(block)
        self.trace = [
            (request.arrival_units, order[index], request.slo)
            for index, request in enumerate(generator.requests(self.requests))
        ]
        self.key = f"serve {self.name} seed={seed} requests={self.requests}"

    def rep(self) -> Rep:
        from repro.fleet.slo import FleetAdmissionError

        rep = Rep(ops=len(self.trace))
        router = self._fleet(self.store_dirs[-1])
        submitted_at: Dict[int, float] = {}
        results: List[Any] = []
        rerouted = 0
        retries = 0

        def absorb(batch) -> None:
            now = time.perf_counter()
            for result in batch:
                rep.latencies.append(now - submitted_at[result.fleet_id])
                results.append(result)

        try:
            for fleet_id, (arrival, graph, slo) in enumerate(self.trace, 1):
                router.advance_to(arrival)
                if self.kill_worker and fleet_id - 1 == len(self.trace) // 2:
                    rerouted = router.kill_worker(self.kill_worker)
                while True:
                    try:
                        router.submit(graph, slo=slo)
                        break
                    except FleetAdmissionError:
                        retries += 1
                        absorb(router.pump())
                submitted_at[fleet_id] = time.perf_counter()
                if fleet_id % self.pump_every == 0:
                    absorb(router.pump())
            absorb(router.drain())
        except Exception as exc:  # the fleet broke; every request counts
            rep.failed = rep.ops
            rep.problems.append(failure_note(exc))
            return rep

        accounting = router.accounting()
        counters = router.fleet_metrics().snapshot()["counters"]
        pairs = sorted((r.fleet_id, r.latency_units) for r in results)
        invariants = {
            "lost == 0": accounting["lost"] == 0,
            "admitted == served + shed + queued": accounting["admitted"]
            == accounting["served"] + accounting["shed"] + accounting["queued"],
            "every request admitted": accounting["admitted"] == rep.ops,
            "every request served exactly once":
                [fleet_id for fleet_id, _ in pairs] == list(range(1, rep.ops + 1)),
        }
        broken = [name for name, holds in invariants.items() if not holds]
        if broken:
            rep.failed = rep.ops
            rep.problems.append(f"{self.key}: invariants broken: {broken}")
            return rep
        rep.outputs = {
            "admitted": accounting["admitted"],
            "served": accounting["served"],
            "shed": accounting["shed"],
            "queued": accounting["queued"],
            "lost": accounting["lost"],
            "rerouted": rerouted,
            "latency_digest": hashlib.sha256(
                json.dumps(pairs, separators=(",", ":")).encode()
            ).hexdigest(),
            "inferences_served": counters.get("inferences_served", 0),
            "sim_units_busy": counters.get("sim_units_busy", 0),
            "cache_spills": counters.get("cache_spills", 0),
        }
        latency = [units for _, units in pairs]
        tail = tail_quantile(len(latency))
        rep.exact["latency_units_p50"] = percentile(latency, 0.50)
        if tail is not None:
            rep.exact[f"latency_units_p{round(tail * 100)}"] = percentile(
                latency, tail
            )
        cache = router.cache_summary()
        waits = [r.dispatch_units - r.arrival_units for r in results]
        service = [r.completion_units - r.dispatch_units for r in results]
        rep.counts = {
            "runtime.plan_cache.hits": cache["hits"],
            "runtime.plan_cache.misses": cache["misses"],
            "runtime.plan_cache.disk_hits": cache["disk_hits"],
            "runtime.plan_cache.disk_writes": cache["disk_writes"],
            "runtime.server.batches": counters.get("batches_executed", 0),
            "runtime.server.requests": counters.get("requests_served", 0),
            "fleet.requests_rerouted": accounting["rerouted"],
            "fleet.admission_retries": retries,
            "fleet.queue_wait_units_p50": percentile(waits, 0.50),
            "fleet.queue_wait_units_p99": percentile(waits, 0.99),
            "fleet.service_units_p99": percentile(service, 0.99),
            "fleet.latency_units_p50": percentile(latency, 0.50),
            "fleet.latency_units_p99": percentile(latency, 0.99),
        }
        return rep

    def entry_ops(self, rep: Rep) -> int:
        # One digest covers the whole trace: a mismatch fails every request.
        return rep.ops

    def close(self) -> None:
        for store_dir in self.store_dirs:
            shutil.rmtree(store_dir, ignore_errors=True)
        self.store_dirs.clear()
        with contextlib.suppress(OSError):
            TMP_ROOT.rmdir()  # only when no other run still uses it


# ----------------------------------------------------------------------
# the registry
# ----------------------------------------------------------------------
PAPER_MIX = ("protein", "speech-2", "randwired-ba-64", "flower")
#: the fleet CLI's default mix: graphs whose steady state converges.
SMALL_MIX = ("lenet5", "flower", "stock-predict", "string-matching")


def build_workloads() -> Dict[str, Workload]:
    """The benchmark's workloads at full size, by name."""
    return {
        w.name: w
        for w in (
            CliWorkload(
                "cli-protein",
                ["protein", "--pes", "64", "--iterations", "1000",
                 "--simulate", "200"],
            ),
            SweepWorkload("compile-sweep"),
            ServeWorkload(
                "serve-paper", PAPER_MIX, interarrival=128, batch_window=64,
                pump_every=64, requests=500, kill_worker="worker-3",
            ),
            ServeWorkload(
                "serve-small", SMALL_MIX, interarrival=8, batch_window=512,
                pump_every=512, requests=8000,
            ),
        )
    }
