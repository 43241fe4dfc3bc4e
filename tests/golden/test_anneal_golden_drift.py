"""Golden drift detection for the annealing allocator.

``tests/golden/anneal.json`` pins the annealer's placements (as a
digest), profit, slots and full :class:`~repro.core.search.SearchStats`
for every paper benchmark on every machine variant of the search battery
and every rung of its budget ladder. A failing test here means the walk
moved; if the move is intentional, bless it with::

    PYTHONPATH=src python -m tests.golden.regen

and review the resulting fixture diff like any other code change.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import BENCHMARK_SIZES
from repro.pim.config import PimConfig
from repro.verify.differential_search import DEFAULT_BUDGET_LADDER
from repro.verify.oracle import machine_variants

from tests.golden.regen import (
    ANNEAL_GOLDEN_PATH,
    ANNEAL_SEED,
    GOLDEN_FORMAT_VERSION,
    anneal_benchmark_entries,
    load_golden,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.regen"


@pytest.fixture(scope="module")
def golden():
    assert ANNEAL_GOLDEN_PATH.is_file(), (
        f"missing fixture {ANNEAL_GOLDEN_PATH}; {REGEN_HINT}"
    )
    return load_golden(ANNEAL_GOLDEN_PATH)


class TestFixtureShape:
    def test_format_version(self, golden):
        assert golden["format_version"] == GOLDEN_FORMAT_VERSION

    def test_covers_every_benchmark(self, golden):
        assert set(golden["benchmarks"]) == set(BENCHMARK_SIZES), REGEN_HINT

    def test_matrix_is_the_search_battery(self, golden):
        assert PimConfig.from_dict(golden["config"]) == PimConfig()
        assert golden["seed"] == ANNEAL_SEED
        assert golden["budgets"] == list(DEFAULT_BUDGET_LADDER)
        expected = {
            f"{variant}/{budget}"
            for variant, _machine in machine_variants(PimConfig())
            for budget in DEFAULT_BUDGET_LADDER
        }
        for name, entries in golden["benchmarks"].items():
            assert set(entries) == expected, f"{name}: {REGEN_HINT}"


@pytest.mark.parametrize("name", sorted(BENCHMARK_SIZES))
def test_benchmark_matches_golden(name, golden):
    """Re-run the walk on every variant and budget; diff field by field."""
    expected = golden["benchmarks"][name]
    actual = anneal_benchmark_entries(name)
    drifted = [
        f"{key} {field}: golden={expected[key].get(field)!r} "
        f"actual={actual[key].get(field)!r}"
        for key in sorted(expected)
        for field in sorted(set(expected[key]) | set(actual[key]))
        if expected[key].get(field) != actual[key].get(field)
    ]
    assert not drifted, (
        f"anneal golden drift on {name!r}: "
        + "; ".join(drifted) + f"; {REGEN_HINT}"
    )
