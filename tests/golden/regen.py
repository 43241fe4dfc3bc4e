"""Golden fixture computation and regeneration.

Three fixtures live next to this module:

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

from repro.cnn.workloads import WORKLOADS, load_workload
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.core.search import AnnealAllocator
from repro.graph.generators import BENCHMARK_SIZES, synthetic_benchmark
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.runtime.plan_cache import plan_to_dict
from repro.sim.executor import PeFaultError, ScheduleExecutor
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
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
