"""Golden drift detection for the simulator's static tables.

Before its event loop runs, a simulator run derives every static fact it
needs from the plan and the machine: one row per event rid, the rid
decoding fields, the in-degrees, the start-key constants, the nominal
start offsets and the packed event-key layout.
``tests/golden/sim_tables.json`` pins a digest of each, for every
registered workload on one machine at one batch size, so a rewrite of
the table pass must reproduce them exactly. If a move is intentional,
bless it with::

    PYTHONPATH=src python -m tests.golden.regen

and review the resulting fixture diff like any other code change.
"""

from __future__ import annotations

import pytest

from repro.cnn.workloads import WORKLOADS

from tests.golden.regen import (
    GOLDEN_FORMAT_VERSION,
    SIM_NUM_VAULTS,
    SIM_TABLES_ITERATIONS,
    SIM_TABLES_MACHINE,
    SIM_TABLES_PATH,
    load_golden,
    sim_machines,
    sim_tables_entry,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.regen"


@pytest.fixture(scope="module")
def golden():
    assert SIM_TABLES_PATH.is_file(), (
        f"missing fixture {SIM_TABLES_PATH}; {REGEN_HINT}"
    )
    return load_golden(SIM_TABLES_PATH)


def test_fixture_shape(golden):
    assert golden["format_version"] == GOLDEN_FORMAT_VERSION
    assert golden["machine"] == dict(sim_machines())[SIM_TABLES_MACHINE].to_dict()
    assert golden["num_vaults"] == SIM_NUM_VAULTS
    assert golden["iterations"] == SIM_TABLES_ITERATIONS
    assert set(golden["workloads"]) == set(WORKLOADS), REGEN_HINT


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_tables_match_golden(name, golden):
    expected = golden["workloads"][name]
    actual = sim_tables_entry(name)
    drifted = [
        f"{field}: golden={expected.get(field)!r} actual={actual.get(field)!r}"
        for field in sorted(set(expected) | set(actual))
        if expected.get(field) != actual.get(field)
    ]
    assert not drifted, (
        f"sim table drift on {name!r}: " + "; ".join(drifted) + f"; {REGEN_HINT}"
    )
