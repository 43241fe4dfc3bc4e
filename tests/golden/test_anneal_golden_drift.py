"""The DP against the oracle's frozen verdicts, benchmark by benchmark.

The annealing allocator's golden pinned its walk on every paper
benchmark, machine view and budget. The walk reached the DP's profit on
every cell, and the annealer and its fixture were deleted. What the
fixture guarded now rests on the DP: on every view that
``tests/golden/oracle_verdicts.json`` enumerated, the DP plan the
pipeline compiles must bank the frozen optimum. A DP change that loses
profit fails here even if the live oracle moved with it. If the
verdicts themselves must move, regenerate them with::

    PYTHONPATH=src python -m tests.golden.regen

and review the resulting fixture diff like any other code change.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Any, Dict

import pytest

from repro.cnn.workloads import load_workload
from repro.core.allocation import dp_allocate
from repro.core.paraconv import ParaConv
from repro.graph.generators import BENCHMARK_SIZES
from repro.verify.oracle import (
    DEFAULT_EXHAUSTIVE_LIMIT,
    allocation_instance,
    machine_variants,
)

from tests.golden.regen import (
    GOLDEN_FORMAT_VERSION,
    ORACLE_VERDICTS_PATH,
    load_golden,
    oracle_machine,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.regen"


@lru_cache(maxsize=None)
def dp_entries(name: str) -> Dict[str, Dict[str, Any]]:
    """The DP plan's instance and answer on every view of ``name``."""
    graph = load_workload(name)
    entries: Dict[str, Dict[str, Any]] = {}
    for view, machine in machine_variants(oracle_machine()):
        plan = ParaConv(machine, validate=False).run(graph)
        problem, _width = allocation_instance(graph, machine, plan)
        result = dp_allocate(problem)
        entries[view] = {
            "num_items": problem.num_items,
            "capacity_slots": problem.capacity_slots,
            "total_delta_r": result.total_delta_r,
            "slots_used": result.slots_used,
        }
    return entries


@pytest.fixture(scope="module")
def golden():
    assert ORACLE_VERDICTS_PATH.is_file(), (
        f"missing fixture {ORACLE_VERDICTS_PATH}; {REGEN_HINT}"
    )
    return load_golden(ORACLE_VERDICTS_PATH)


class TestFixtureShape:
    def test_format_version(self, golden):
        assert golden["format_version"] == GOLDEN_FORMAT_VERSION

    def test_covers_every_benchmark(self, golden):
        """Every benchmark has its verdicts, and enough of them have an
        enumerable view to pin the DP on each machine view."""
        assert set(golden["benchmarks"]) == set(BENCHMARK_SIZES), REGEN_HINT
        pinned = {
            view
            for views in golden["benchmarks"].values()
            for view in views
        }
        assert pinned == {"healthy", "degraded", "shard-0", "shard-1"}

    def test_matrix_is_the_search_battery(self, golden):
        """The verdicts hold exactly the enumerable views of every
        benchmark on ``machine_variants`` of the oracle's machine."""
        labels = [label for label, _ in machine_variants(oracle_machine())]
        assert labels == ["healthy", "degraded", "shard-0", "shard-1"]
        for name in sorted(BENCHMARK_SIZES):
            entries = dp_entries(name)
            assert list(entries) == labels
            enumerable = {
                view for view, entry in entries.items()
                if entry["num_items"] <= DEFAULT_EXHAUSTIVE_LIMIT
            }
            assert set(golden["benchmarks"][name]) == enumerable, (
                f"{name}: {REGEN_HINT}"
            )


@pytest.mark.parametrize("name", sorted(BENCHMARK_SIZES))
def test_benchmark_matches_golden(name, golden):
    """The DP banks the frozen optimum on every enumerated view."""
    actual = dp_entries(name)
    drifted = [
        f"{view} {field}: golden={expected[field]!r} "
        f"dp={actual[view][field]!r}"
        for view, expected in sorted(golden["benchmarks"][name].items())
        for field in ("num_items", "capacity_slots", "total_delta_r")
        if expected[field] != actual[view][field]
    ]
    assert not drifted, (
        f"dp falls off the frozen optimum on {name!r}: "
        + "; ".join(drifted) + f"; {REGEN_HINT}"
    )
    for view, entry in actual.items():
        assert entry["slots_used"] <= entry["capacity_slots"], view
