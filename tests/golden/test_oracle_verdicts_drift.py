"""Golden drift detection for the exhaustive allocation oracle.

``tests/golden/oracle_verdicts.json`` pins the oracle's answer -- the
placements (as a digest), the cached keys in order, the profit and the
slots -- on every instance the oracle enumerates: each paper benchmark
on each view of ``machine_variants`` at the verify CLI's defaults, where
the instance has at most ``DEFAULT_EXHAUSTIVE_LIMIT`` competing results.
The verdicts were frozen from the original incumbent scan, so a failing
test here means the oracle's optimum or its tie-break moved; if the move
is intentional, bless it with::

    PYTHONPATH=src python -m tests.golden.regen

and review the resulting fixture diff like any other code change.
"""

from __future__ import annotations

import pytest

from repro.graph.generators import BENCHMARK_SIZES
from repro.verify.oracle import DEFAULT_EXHAUSTIVE_LIMIT, machine_variants

from tests.golden.regen import (
    GOLDEN_FORMAT_VERSION,
    ORACLE_VERDICTS_PATH,
    load_golden,
    oracle_benchmark_entries,
    oracle_machine,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.regen"


@pytest.fixture(scope="module")
def golden():
    assert ORACLE_VERDICTS_PATH.is_file(), (
        f"missing fixture {ORACLE_VERDICTS_PATH}; {REGEN_HINT}"
    )
    return load_golden(ORACLE_VERDICTS_PATH)


class TestFixtureShape:
    def test_format_version(self, golden):
        assert golden["format_version"] == GOLDEN_FORMAT_VERSION

    def test_matrix_is_the_search_battery(self, golden):
        """Every paper benchmark on the views of ``machine_variants``."""
        assert set(golden["benchmarks"]) == set(BENCHMARK_SIZES), REGEN_HINT
        assert golden["config"] == oracle_machine().to_dict()
        assert golden["limit"] == DEFAULT_EXHAUSTIVE_LIMIT
        views = {label for label, _ in machine_variants(oracle_machine())}
        for name, variants in golden["benchmarks"].items():
            assert set(variants) <= views, f"{name}: {REGEN_HINT}"

    def test_every_entry_is_enumerable(self, golden):
        entries = [
            entry
            for variants in golden["benchmarks"].values()
            for entry in variants.values()
        ]
        assert entries, REGEN_HINT
        assert all(
            entry["num_items"] <= DEFAULT_EXHAUSTIVE_LIMIT
            for entry in entries
        )


@pytest.mark.parametrize("name", sorted(BENCHMARK_SIZES))
def test_benchmark_matches_golden(name, golden):
    """Re-enumerate every variant of ``name``; diff field by field."""
    expected = golden["benchmarks"][name]
    actual = oracle_benchmark_entries(name)
    assert set(actual) == set(expected), f"{name}: {REGEN_HINT}"
    drifted = [
        f"{variant} {field}: golden={expected[variant].get(field)!r} "
        f"actual={actual[variant].get(field)!r}"
        for variant in sorted(expected)
        for field in sorted(set(expected[variant]) | set(actual[variant]))
        if expected[variant].get(field) != actual[variant].get(field)
    ]
    assert not drifted, (
        f"oracle golden drift on {name!r}: "
        + "; ".join(drifted) + f"; {REGEN_HINT}"
    )
