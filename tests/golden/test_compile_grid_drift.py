"""Golden drift detection for the compile sweep.

``tests/golden/compile_grid.json`` pins the plan digest of every cell of
the compile sweep: each paper and randwired workload on 16 and 64 PEs at
N=1000. Wide machines make equal PE-free times common, so a change to
how the kernel packer or the topological sort breaks ties shows here
first. A failing test means the planner's output moved; if the move is
intentional, bless it with::

    PYTHONPATH=src python -m tests.golden.regen

and review the resulting fixture diff like any other code change.
"""

from __future__ import annotations

import pytest

from tests.golden.regen import (
    COMPILE_GRID_PATH,
    GOLDEN_FORMAT_VERSION,
    GRID_ITERATIONS,
    GRID_PES,
    grid_cell_id,
    grid_entry,
    grid_workloads,
    load_golden,
)

REGEN_HINT = "regenerate with: PYTHONPATH=src python -m tests.golden.regen"

CELLS = [(name, pes) for name in grid_workloads() for pes in GRID_PES]


@pytest.fixture(scope="module")
def golden():
    assert COMPILE_GRID_PATH.is_file(), (
        f"missing fixture {COMPILE_GRID_PATH}; {REGEN_HINT}"
    )
    return load_golden(COMPILE_GRID_PATH)


class TestFixtureShape:
    def test_format_version(self, golden):
        assert golden["format_version"] == GOLDEN_FORMAT_VERSION

    def test_covers_every_cell(self, golden):
        assert golden["pes"] == list(GRID_PES)
        assert golden["iterations"] == GRID_ITERATIONS
        assert set(golden["cells"]) == {
            grid_cell_id(name, pes) for name, pes in CELLS
        }, REGEN_HINT


@pytest.mark.parametrize(
    "name,pes", CELLS, ids=[grid_cell_id(name, pes) for name, pes in CELLS]
)
def test_cell_plan_matches_golden(name, pes, golden):
    expected = golden["cells"][grid_cell_id(name, pes)]
    actual = grid_entry(name, pes)
    drifted = {
        field: (expected[field], actual[field])
        for field in expected
        if actual.get(field) != expected[field]
    }
    assert not drifted, (
        f"compile-grid drift on {name!r} at {pes} PEs: "
        + ", ".join(
            f"{field}: golden={want!r} actual={got!r}"
            for field, (want, got) in sorted(drifted.items())
        )
        + f"; {REGEN_HINT}"
    )
