"""Paper-scale end-to-end benchmark for the Para-CONV reproduction.

Run from the repository root::

    python3 -m bench [--workloads A,B] [--seed S] [--seconds T]
                     [--trace 0|1|DIR] [--out RESULTS.json] [--regen-expected]
    python3 -m bench compare A.json B.json

The package lives outside ``src/`` on purpose: a change that claims a
speed-up cannot also edit what measures it. It reaches the program only
through its public entry points, and finds ``src/`` relative to its own
location, so it runs from any checkout without an install.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict

#: checkout root (the directory holding ``BENCHMARK.json``).
ROOT = Path(__file__).resolve().parent.parent
#: the program under test.
SRC = ROOT / "src"
#: the benchmark definition: workloads, metrics, units, bounds.
SPEC_PATH = ROOT / "BENCHMARK.json"
#: frozen outputs every run is checked against.
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"
#: scratch space for plan stores; inside the checkout, removed after use.
TMP_ROOT = ROOT / ".bench_tmp"


def load_spec() -> Dict[str, Any]:
    """The parsed ``BENCHMARK.json``."""
    with open(SPEC_PATH) as handle:
        return json.load(handle)
