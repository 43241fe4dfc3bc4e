"""Golden drift detection for the simulator's verdicts.

Every registered workload is compiled on three machines (healthy,
degraded, shard) and simulated in both modes at two batch sizes, plus
one PE-fault case; ``tests/golden/sim_signatures.json`` pins each run's
aggregate signature, convergence observables, per-round counter digest
and fault. A failing test here means the simulator's behaviour moved; if
the move is intentional, bless it with::

    PYTHONPATH=src python -m tests.golden.regen

and review the resulting fixture diff like any other code change.
"""

from __future__ import annotations

import pytest

from repro.cnn.workloads import WORKLOADS
from repro.pim.config import PimConfig

from tests.golden.regen import (
    GOLDEN_FORMAT_VERSION,
    SIM_GOLDEN_PATH,
    load_golden,
    sim_case_id,
    sim_cases,
    sim_machines,
    sim_workload_entries,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.regen"


@pytest.fixture(scope="module")
def golden():
    assert SIM_GOLDEN_PATH.is_file(), (
        f"missing fixture {SIM_GOLDEN_PATH}; {REGEN_HINT}"
    )
    return load_golden(SIM_GOLDEN_PATH)


class TestFixtureShape:
    def test_format_version(self, golden):
        assert golden["format_version"] == GOLDEN_FORMAT_VERSION

    def test_covers_every_workload(self, golden):
        assert set(golden["workloads"]) == set(WORKLOADS), REGEN_HINT

    def test_covers_the_case_matrix(self, golden):
        expected = {sim_case_id(*case) for case in sim_cases()}
        for name, entries in golden["workloads"].items():
            assert set(entries) == expected, f"{name}: {REGEN_HINT}"

    def test_machines_match(self, golden):
        assert golden["machines"] == {
            label: config.to_dict() for label, config in sim_machines()
        }
        for config in golden["machines"].values():
            PimConfig.from_dict(config)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_matches_golden(name, golden):
    """Re-simulate every case of one workload and diff field by field."""
    expected = golden["workloads"][name]
    actual = sim_workload_entries(name)
    drifted = [
        f"{case} {field}: golden={expected[case].get(field)!r} "
        f"actual={actual[case].get(field)!r}"
        for case in sorted(expected)
        for field in sorted(set(expected[case]) | set(actual[case]))
        if expected[case].get(field) != actual[case].get(field)
    ]
    assert not drifted, (
        f"sim golden drift on {name!r}: "
        + "; ".join(drifted) + f"; {REGEN_HINT}"
    )
