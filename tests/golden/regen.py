"""Golden fixture computation and regeneration.

Seven fixtures live next to this module:

* ``benchmarks.json`` pins the full compiled plan for every paper
  benchmark on the default machine: scalar plan metrics (period,
  ``R_max``, group shape, allocation profit, off-chip traffic, analytic
  latency) plus a SHA-256 digest of the canonical plan JSON
  (``tests/golden/test_golden_drift.py``).
* ``sim_signatures.json`` pins the simulator's verdict on every
  registered workload across machines, modes, batch sizes and a fault
  case: the aggregate signature, the convergence observables, a digest
  of the per-round counter stream and the fault that stopped the run
  (``tests/golden/test_sim_golden_drift.py``).
* ``anneal.json`` pins the annealing allocator's placements and
  :class:`~repro.core.search.SearchStats` on every paper benchmark
  across the search battery's machine variants and budget ladder
  (``tests/golden/test_anneal_golden_drift.py``).
* ``compile_grid.json`` pins the plan digest of every cell of the
  compile sweep: each paper and randwired workload on 16 and 64 PEs at
  N=1000, where wide machines make PE-packing ties common
  (``tests/golden/test_compile_grid_drift.py``).
* ``profit_scores.json`` pins ``(ΔR profit, slots)`` of a fixed batch of
  candidate cache subsets on the ``cat`` allocation instance, as the
  pre-columnar object walk scored them
  (``tests/core/test_profit_table.py``).
* ``fleet_metrics.json`` pins every instrument the serving tier records
  over one seeded fleet trace (two SLO classes, deadline shedding,
  admission backpressure and a mid-run worker kill): every counter and
  gauge, and for each histogram in simulated units its count, total,
  min, max and a digest of its reservoir samples; wall-clock histograms
  pin their count only (``tests/golden/test_fleet_metrics_drift.py``).
* ``sim_tables.json`` pins the static tables the simulator builds before
  its event loop runs, for every registered workload on one machine at
  one batch size: a digest each of the event rows, the rid decoding
  fields, the in-degrees, the start-key constants and the nominal start
  offsets, plus the packed event-key layout
  (``tests/golden/test_sim_tables_drift.py``).

Any change that moves *any* pinned fact is surfaced as an explicit diff;
intentional changes are blessed by regenerating the fixtures:

    PYTHONPATH=src python -m tests.golden.regen

The fixtures are deterministic: the whole pipeline is seed-free given the
workload generators' fixed seeds, so regeneration on any machine
produces byte-identical files.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

from repro.cnn.workloads import (
    PAPER_BENCHMARKS,
    RANDWIRED_BENCHMARKS,
    WORKLOADS,
    load_workload,
)
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.core.search import AnnealAllocator
from repro.fleet.loadgen import FleetLoadGenerator, run_bench
from repro.fleet.router import FleetRouter
from repro.fleet.slo import SloClass, SloPolicy
from repro.fleet.worker import FleetWorker
from repro.graph.generators import BENCHMARK_SIZES, synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.runtime.metrics import MetricsRegistry
from repro.runtime.plan_cache import plan_to_dict
from repro.sim.executor import PeFaultError, ScheduleExecutor, _ScheduleRun
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink
from repro.verify.differential_search import (
    DEFAULT_BUDGET_LADDER,
    allocation_instance,
    machine_variants,
)

_HERE = Path(__file__).resolve().parent

#: Where the golden fixture lives, next to this module.
GOLDEN_PATH = _HERE / "benchmarks.json"
SIM_GOLDEN_PATH = _HERE / "sim_signatures.json"
ANNEAL_GOLDEN_PATH = _HERE / "anneal.json"
COMPILE_GRID_PATH = _HERE / "compile_grid.json"
PROFIT_SCORES_PATH = _HERE / "profit_scores.json"
FLEET_METRICS_PATH = _HERE / "fleet_metrics.json"
SIM_TABLES_PATH = _HERE / "sim_tables.json"

#: Fixture layout version; bump when entry fields change.
GOLDEN_FORMAT_VERSION = 1

#: Simulated batch sizes: one iteration (prologue only) and a batch long
#: enough for steady-state detection to engage on converging workloads.
SIM_ITERATIONS: Tuple[int, ...] = (1, 20)
SIM_MODES: Tuple[str, ...] = ("full", "steady")
SIM_NUM_VAULTS = 32
#: The per-workload fault case: PE 0 dies at iteration boundary 3.
SIM_FAULT = (FAULT_UNIT_PE, 0, 3)
SIM_FAULT_ITERATIONS = 20
ANNEAL_SEED = 0
#: The compile sweep's machine sizes and iteration count.
GRID_PES: Tuple[int, ...] = (16, 64)
GRID_ITERATIONS = 1000
#: The scored candidate batch: workload, machine size and batch shape.
PROFIT_WORKLOAD = "cat"
PROFIT_PES = 16
PROFIT_SEED = 3
PROFIT_CANDIDATES = 64
#: The frozen fleet trace: converging graphs on four 16-PE shards. Every
#: request records one sample per latency histogram, so the trace is
#: long enough to take ``fleet.latency_units`` past its 4096-sample
#: reservoir into Algorithm R.
FLEET_WORKLOADS: Tuple[str, ...] = (
    "flower", "car", "stock-predict", "string-matching",
)
FLEET_REQUESTS = 5000
FLEET_SEED = 18
FLEET_KILL = "worker-1"
#: The machine (a :func:`sim_machines` label) and batch size the
#: simulator's static tables are frozen at.
SIM_TABLES_MACHINE = "healthy"
SIM_TABLES_ITERATIONS = 20


def plan_digest(result: ParaConvResult) -> str:
    """SHA-256 of the canonical JSON form of the full compiled plan."""
    payload = json.dumps(
        plan_to_dict(result), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def golden_entry(result: ParaConvResult) -> Dict[str, Any]:
    """The pinned facts about one compiled benchmark plan."""
    allocation = result.allocation
    return {
        "graph_fingerprint": result.graph.fingerprint(),
        "config_fingerprint": result.config.fingerprint(),
        "period": result.period,
        "max_retiming": result.max_retiming,
        "prologue_time": result.prologue_time,
        "group_width": result.group_width,
        "num_groups": result.num_groups,
        "num_cached": len(allocation.cached),
        "total_delta_r": allocation.total_delta_r,
        "slots_used": allocation.slots_used,
        "capacity_slots": allocation.capacity_slots,
        "offchip_bytes_per_iteration": result.offchip_bytes_per_iteration(),
        "total_time": result.total_time(),
        "plan_sha256": plan_digest(result),
    }


def compute_golden(config: PimConfig | None = None) -> Dict[str, Any]:
    """Compile every paper benchmark and collect its golden entry."""
    config = config or PimConfig()
    entries = {
        name: golden_entry(ParaConv(config).run(synthetic_benchmark(name)))
        for name in BENCHMARK_SIZES
    }
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "config": config.to_dict(),
        "benchmarks": entries,
    }


def load_golden(path: Path = GOLDEN_PATH) -> Dict[str, Any]:
    """Read a committed fixture (the plan fixture by default)."""
    return json.loads(path.read_text())


def _sha256(payload: Any) -> str:
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _as_json(payload: Any) -> Any:
    """``payload`` as it reads back from the fixture (tuples -> lists)."""
    return json.loads(json.dumps(payload))


# ----------------------------------------------------------------------
# simulator verdicts
# ----------------------------------------------------------------------
def sim_machines() -> List[Tuple[str, PimConfig]]:
    """The machines every workload is simulated on."""
    healthy = PimConfig(num_pes=16, iterations=100)
    return [
        ("healthy", healthy),
        ("degraded", healthy.degraded([15])),
        ("shard-1", healthy.split(2)[1]),
    ]


def sim_cases() -> List[Tuple[str, str, int, Optional[Tuple[str, int, int]]]]:
    """``(machine, mode, iterations, fault)`` for one workload."""
    cases: List[Tuple[str, str, int, Optional[Tuple[str, int, int]]]] = [
        (machine, mode, iterations, None)
        for machine, _config in sim_machines()
        for mode in SIM_MODES
        for iterations in SIM_ITERATIONS
    ]
    cases.append(("healthy", "steady", SIM_FAULT_ITERATIONS, SIM_FAULT))
    return cases


def sim_case_id(
    machine: str, mode: str, iterations: int,
    fault: Optional[Tuple[str, int, int]],
) -> str:
    label = f"{machine}/{mode}/N{iterations}"
    if fault is not None:
        unit, unit_id, at = fault
        label += f"/fault-{unit}{unit_id}@{at}"
    return label


def sim_entry(
    plan: ParaConvResult,
    machine: PimConfig,
    mode: str,
    iterations: int,
    fault: Optional[Tuple[str, int, int]] = None,
) -> Dict[str, Any]:
    """The simulator's verdict on one case, in fixture form."""
    rounds: List[Any] = []
    executor = ScheduleExecutor(
        machine,
        num_vaults=SIM_NUM_VAULTS,
        mode=mode,
        fault_model=FaultModel.single(*fault) if fault is not None else None,
        round_probe=lambda index, snapshot: rounds.append(
            [index, dataclasses.astuple(snapshot)]
        ),
    )
    entry: Dict[str, Any] = {}
    try:
        trace = executor.execute(plan, iterations=iterations, sink=NullSink())
    except PeFaultError as exc:
        entry["fault"] = {
            "unit": exc.unit,
            "unit_id": exc.unit_id,
            "round": exc.round,
            "time": exc.time,
            "fault_iteration": exc.fault_iteration,
        }
    else:
        entry["signature"] = trace.aggregate_signature()
        for name in (
            "converged_round", "converged_period", "rounds_simulated",
            "rounds_fast_forwarded", "steady_fingerprint",
        ):
            entry[name] = getattr(trace, name)
    entry["round_probe_sha256"] = _sha256(rounds)
    return _as_json(entry)


def sim_workload_entries(name: str) -> Dict[str, Any]:
    """Every case of one workload, keyed by :func:`sim_case_id`."""
    graph = load_workload(name)
    machines = dict(sim_machines())
    plans = {
        label: ParaConv(config).run(graph)
        for label, config in machines.items()
    }
    return {
        sim_case_id(*case): sim_entry(
            plans[case[0]], machines[case[0]], *case[1:]
        )
        for case in sim_cases()
    }


def compute_sim_golden() -> Dict[str, Any]:
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "num_vaults": SIM_NUM_VAULTS,
        "machines": {
            label: config.to_dict() for label, config in sim_machines()
        },
        "workloads": {name: sim_workload_entries(name) for name in WORKLOADS},
    }


def sim_tables_entry(name: str) -> Dict[str, Any]:
    """Digests of the static tables one simulator run builds for ``name``.

    The run is constructed, never executed: only what its constructor
    derives from the plan and the machine is read.
    """
    machine = dict(sim_machines())[SIM_TABLES_MACHINE]
    plan = ParaConv(machine).run(load_workload(name))
    run = _ScheduleRun(
        machine, SIM_NUM_VAULTS, plan, SIM_TABLES_ITERATIONS,
        SimMode.STEADY_STATE, NullSink(),
    )
    keys = run._keys
    return _as_json({
        "rows_sha256": _sha256(run._rows),
        "rid_fields_sha256": _sha256(run._rid_fields),
        "in_deg_sha256": _sha256(run._in_deg),
        "start_const_sha256": _sha256(run._start_const),
        "static_off_sha256": _sha256(run._static_off.tolist()),
        "key_layout": {slot: getattr(keys, slot) for slot in keys.__slots__},
    })


def compute_sim_tables() -> Dict[str, Any]:
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "machine": dict(sim_machines())[SIM_TABLES_MACHINE].to_dict(),
        "num_vaults": SIM_NUM_VAULTS,
        "iterations": SIM_TABLES_ITERATIONS,
        "workloads": {name: sim_tables_entry(name) for name in WORKLOADS},
    }


# ----------------------------------------------------------------------
# annealing walk verdicts
# ----------------------------------------------------------------------
def anneal_entry(problem, budget: int) -> Dict[str, Any]:
    """The annealer's answer on one instance at one budget."""
    result = AnnealAllocator(max_evals=budget, seed=ANNEAL_SEED)(problem)
    placements = sorted(
        [list(key), placement.value]
        for key, placement in result.placements.items()
    )
    return _as_json({
        "num_cached": len(result.cached),
        "placements_sha256": _sha256(placements),
        "total_delta_r": result.total_delta_r,
        "slots_used": result.slots_used,
        "search_stats": result.search_stats.as_dict(),
    })


def anneal_benchmark_entries(name: str) -> Dict[str, Any]:
    """Every (variant, budget) entry of one paper benchmark."""
    graph = synthetic_benchmark(name)
    entries: Dict[str, Any] = {}
    for variant, machine in machine_variants(PimConfig()):
        problem, _width = allocation_instance(graph, machine)
        for budget in DEFAULT_BUDGET_LADDER:
            entries[f"{variant}/{budget}"] = anneal_entry(problem, budget)
    return entries


def compute_anneal_golden() -> Dict[str, Any]:
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "config": PimConfig().to_dict(),
        "seed": ANNEAL_SEED,
        "budgets": list(DEFAULT_BUDGET_LADDER),
        "benchmarks": {
            name: anneal_benchmark_entries(name) for name in BENCHMARK_SIZES
        },
    }


# ----------------------------------------------------------------------
# compile sweep plans
# ----------------------------------------------------------------------
def grid_workloads() -> List[str]:
    """Every workload the compile sweep covers, in registry order."""
    return PAPER_BENCHMARKS + RANDWIRED_BENCHMARKS


def grid_cell_id(name: str, pes: int) -> str:
    return f"{name}/pes{pes}"


def grid_entry(name: str, pes: int) -> Dict[str, Any]:
    """The compiled plan of one sweep cell, in fixture form."""
    config = PimConfig(num_pes=pes, iterations=GRID_ITERATIONS)
    result = ParaConv(config).run(load_workload(name))
    return {
        "group_width": result.group_width,
        "period": result.period,
        "max_retiming": result.max_retiming,
        "total_time": result.total_time(),
        "plan_sha256": plan_digest(result),
    }


def compute_compile_grid() -> Dict[str, Any]:
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "pes": list(GRID_PES),
        "iterations": GRID_ITERATIONS,
        "cells": {
            grid_cell_id(name, pes): grid_entry(name, pes)
            for name in grid_workloads()
            for pes in GRID_PES
        },
    }


# ----------------------------------------------------------------------
# candidate subset scores
# ----------------------------------------------------------------------
def profit_problem():
    """The allocation instance whose candidate scores are pinned."""
    machine = PimConfig(num_pes=PROFIT_PES, iterations=100)
    problem, _width = allocation_instance(
        synthetic_benchmark(PROFIT_WORKLOAD), machine
    )
    return problem


def score_masks(problem, masks) -> List[List[int]]:
    """``[profit, slots]`` per candidate, one walk over the items each."""
    scores: List[List[int]] = []
    for mask in masks:
        chosen = [item for item, bit in zip(problem.items, mask) if bit]
        scores.append([
            sum(item.delta_r for item in chosen),
            sum(item.slots for item in chosen),
        ])
    return scores


def compute_profit_scores() -> Dict[str, Any]:
    import numpy as np

    problem = profit_problem()
    rng = np.random.default_rng(PROFIT_SEED)
    masks = rng.integers(
        0, 2, size=(PROFIT_CANDIDATES, problem.num_items), dtype=np.int64
    ) > 0
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "workload": PROFIT_WORKLOAD,
        "pes": PROFIT_PES,
        "num_items": problem.num_items,
        "masks": ["".join("1" if bit else "0" for bit in row) for row in masks],
        "scores": score_masks(problem, masks),
    }


# ----------------------------------------------------------------------
# serving metrics
# ----------------------------------------------------------------------
def fleet_router() -> FleetRouter:
    """The frozen fleet: four shards, shallow queues, two SLO classes.

    Interactive requests shed after a short queueing deadline and hit
    their class bound under bursts; shard queues are small enough that
    admission meets ``QueueFullError`` too.
    """
    shards = PimConfig(num_pes=64).split(4, num_vaults=32)
    workers = [
        FleetWorker(
            f"worker-{index}", shard, batch_window=32, max_queue=64,
            graph_loader=load_workload,
        )
        for index, shard in enumerate(shards)
    ]
    policies = {
        SloClass.INTERACTIVE: SloPolicy(max_queue_depth=48, deadline_units=300),
        SloClass.BATCH: SloPolicy(max_queue_depth=4096),
    }
    return FleetRouter(workers, policies=policies, graph_loader=load_workload)


def freeze_registry(registry: MetricsRegistry) -> Dict[str, Any]:
    """Every instrument of one registry, in fixture form.

    Histograms whose name carries ``_units`` hold simulated time and are
    exact functions of the trace: count, total, min, max and the
    reservoir samples (as a digest) are pinned. The others hold host
    seconds; only their count is.
    """
    histograms: Dict[str, Any] = {}
    for name, histogram in sorted(registry.histograms.items()):
        entry: Dict[str, Any] = {"count": histogram.count}
        if "_units" in name:
            entry.update(
                total=histogram.total,
                min=histogram.min,
                max=histogram.max,
                samples=len(histogram._samples),
                samples_sha256=_sha256(histogram._samples),
            )
        histograms[name] = entry
    return {
        "counters": {
            name: counter.value
            for name, counter in sorted(registry.counters.items())
        },
        "gauges": {
            name: gauge.value
            for name, gauge in sorted(registry.gauges.items())
        },
        "histograms": histograms,
    }


def fleet_registries() -> Dict[str, Any]:
    """Serve the frozen trace; each registry (router, then shards) frozen."""
    router = fleet_router()
    generator = FleetLoadGenerator(
        FLEET_WORKLOADS,
        slo_mix={SloClass.INTERACTIVE: 0.3, SloClass.BATCH: 0.7},
        mean_interarrival_units=4,
        seed=FLEET_SEED,
    )
    run_bench(
        router, generator, FLEET_REQUESTS,
        kill_worker_id=FLEET_KILL, pump_every=160,
    )
    registries = {"router": freeze_registry(router.metrics)}
    for worker_id, worker in router.workers.items():
        registries[worker_id] = freeze_registry(worker.server.metrics)
    return _as_json(registries)


def compute_fleet_metrics() -> Dict[str, Any]:
    return {
        "format_version": GOLDEN_FORMAT_VERSION,
        "workloads": list(FLEET_WORKLOADS),
        "requests": FLEET_REQUESTS,
        "seed": FLEET_SEED,
        "kill": FLEET_KILL,
        "registries": fleet_registries(),
    }


def _write(path: Path, payload: Dict[str, Any]) -> None:
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def main() -> int:
    payload = compute_golden()
    _write(GOLDEN_PATH, payload)
    print(f"wrote {len(payload['benchmarks'])} entries to {GOLDEN_PATH}")
    sim = compute_sim_golden()
    _write(SIM_GOLDEN_PATH, sim)
    print(f"wrote {len(sim['workloads'])} workloads to {SIM_GOLDEN_PATH}")
    anneal = compute_anneal_golden()
    _write(ANNEAL_GOLDEN_PATH, anneal)
    print(f"wrote {len(anneal['benchmarks'])} benchmarks to "
          f"{ANNEAL_GOLDEN_PATH}")
    grid = compute_compile_grid()
    _write(COMPILE_GRID_PATH, grid)
    print(f"wrote {len(grid['cells'])} cells to {COMPILE_GRID_PATH}")
    scores = compute_profit_scores()
    _write(PROFIT_SCORES_PATH, scores)
    print(f"wrote {len(scores['scores'])} scores to {PROFIT_SCORES_PATH}")
    fleet = compute_fleet_metrics()
    _write(FLEET_METRICS_PATH, fleet)
    print(f"wrote {len(fleet['registries'])} registries to "
          f"{FLEET_METRICS_PATH}")
    tables = compute_sim_tables()
    _write(SIM_TABLES_PATH, tables)
    print(f"wrote {len(tables['workloads'])} workloads to {SIM_TABLES_PATH}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
