"""What each entry point loads, checked in a fresh interpreter.

Compiling with the default DP, simulating and serving never load numpy,
``import repro.__main__`` loads only the compile layer, the fleet loads
none of the eval experiments, and the allocator registry is the same
whatever a process imported first. Each check runs in a
fresh interpreter, because modules stay in ``sys.modules`` once any
earlier test imported them.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = str(Path(repro.__file__).resolve().parent.parent)


def run_fresh(*args: str) -> str:
    """Stdout of ``python <args>`` in a fresh interpreter on this source."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, *args],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def run_script(script: str) -> str:
    return run_fresh("-c", textwrap.dedent(script))


def test_cli_and_fleet_paths_import_no_numpy(tmp_path):
    out = run_script(f"""
        import sys
        from repro.__main__ import main

        def check(where):
            assert "numpy" not in sys.modules, where
            print("no numpy after", where)

        base = ["cat", "--pes", "16", "--iterations", "100",
                "--simulate", "20"]
        assert main(base + ["--liveness-aware", "--baseline", "--explain",
                            "--gantt"]) == 0
        check("cli")
        assert main(base + ["--trace", {str(tmp_path / "t.json")!r}]) == 0
        check("cli --trace")

        from repro.fleet.__main__ import build_fleet
        from repro.fleet.store import SharedPlanStore

        graphs = ["cat", "flower", "lenet5"]
        store_dir = {str(tmp_path / "plans")!r}
        for phase in ("cold store", "warm store"):
            router = build_fleet(2, 16, 8, SharedPlanStore(store_dir))
            for name in graphs:
                router.submit(name, iterations=4)
            served = router.drain()
            assert sorted(r.workload for r in served) == graphs
            check(phase)
    """)
    checked = [
        line[len("no numpy after "):]
        for line in out.splitlines() if line.startswith("no numpy after ")
    ]
    assert checked == ["cli", "cli --trace", "cold store", "warm store"]


#: Packages whose ``__init__`` exports names through a PEP 562 table.
LAZY_PACKAGES = ["repro", "repro.core", "repro.graph", "repro.pim", "repro.cnn"]


def test_lazy_exports_resolve():
    out = run_script(f"""
        import importlib
        import sys
        import repro

        assert "repro.runtime" not in sys.modules
        from repro.runtime.session import InferenceSession
        assert repro.InferenceSession is InferenceSession
        for name in {LAZY_PACKAGES!r}:
            package = importlib.import_module(name)
            namespace = {{}}
            exec(f"from {{name}} import *", namespace)
            assert set(package.__all__) <= set(namespace), name
            for export in package.__all__:
                value = getattr(package, export)
                assert namespace[export] is value, (name, export)
            try:
                package.no_such_name
            except AttributeError as exc:
                print(exc)
        assert repro.PlanCache.__module__ == "repro.runtime.plan_cache"
        assert repro.SpartaScheduler.__module__ == "repro.core.baseline"
    """)
    assert out.splitlines() == [
        f"module {name!r} has no attribute 'no_such_name'"
        for name in LAZY_PACKAGES
    ]


#: Modules the compile CLI does not run unless asked: the CNN layer
#: algebra and builders, the graph serializers and randwired builders, the
#: baseline, Gantt, expansion, schedule I/O and liveness passes, and the
#: machine's tenancy, fault, energy and preset models.
NOT_ON_THE_CLI_PATH = [
    "repro.cnn.layers", "repro.cnn.network", "repro.cnn.googlenet",
    "repro.cnn.partition", "repro.cnn.models",
    "repro.graph.randwired", "repro.graph.io", "repro.graph.instances",
    "repro.graph.transforms",
    "repro.core.baseline", "repro.core.gantt", "repro.core.expansion",
    "repro.core.schedule_io", "repro.core.liveness",
    "repro.pim.tenancy", "repro.pim.faults", "repro.pim.energy",
    "repro.pim.presets",
]


def test_cli_entry_loads_only_the_compile_layer():
    out = run_script(f"""
        import sys
        import repro.__main__

        print(sorted(set({NOT_ON_THE_CLI_PATH!r}) & set(sys.modules)))
        print(sorted(
            name for name in sys.modules
            if name.startswith(("repro.sim", "repro.runtime", "repro.fleet",
                                "repro.eval", "repro.verify"))
        ))
    """)
    assert out.splitlines() == ["[]", "[]"]


#: ``python -m repro --list``: the twelve paper benchmarks in Table 1
#: order, then the GoogLeNet, model and randwired entries.
WORKLOAD_NAMES = [
    "cat", "car", "flower", "character-1", "character-2", "image-compress",
    "stock-predict", "string-matching", "shortest-path", "speech-1",
    "speech-2", "protein", "googlenet", "googlenet-small", "lenet5",
    "alexnet", "vgg16", "randwired-er", "randwired-ws", "randwired-ba",
    "randwired-er-64", "randwired-ba-64",
]


def test_cli_lists_every_workload_in_registry_order():
    assert run_fresh("-m", "repro", "--list").splitlines() == WORKLOAD_NAMES


def test_registry_names_match_their_builders():
    """The registry names the model and randwired entries without importing
    their builders; the names must stay those of the builders' tables."""
    from repro.cnn.models import MODEL_BUILDERS
    from repro.cnn.workloads import (
        MODEL_NAMES,
        RANDWIRED_BENCHMARKS,
        RANDWIRED_NAMES,
        WORKLOADS,
    )
    from repro.graph.randwired import RANDWIRED_SPECS

    assert list(MODEL_NAMES) == list(MODEL_BUILDERS)
    assert list(RANDWIRED_NAMES) == list(RANDWIRED_SPECS)
    assert RANDWIRED_BENCHMARKS == list(RANDWIRED_SPECS)
    assert list(WORKLOADS) == WORKLOAD_NAMES


#: The registry every process sees, whatever it imported first.
REGISTRY = ["all-edram", "dp", "greedy", "iterative", "oracle", "random"]


@pytest.mark.parametrize(
    "entry", ["repro.__main__", "repro.runtime.session", "repro.verify"]
)
def test_allocator_registry_is_the_same_in_every_process(entry):
    out = run_script(f"""
        import importlib

        importlib.import_module({entry!r})
        from repro.cnn.workloads import load_workload
        from repro.core.allocation import ALLOCATORS, UnknownAllocatorError
        from repro.pim.config import PimConfig
        from repro.runtime.session import InferenceSession

        print(sorted(ALLOCATORS))
        try:
            InferenceSession(
                load_workload("cat"), PimConfig(num_pes=16),
                allocator="anneal",
            )
        except UnknownAllocatorError as exc:
            print(exc.choices)
    """)
    assert out.splitlines() == [str(REGISTRY), str(REGISTRY)]


def test_fleet_entry_loads_no_eval_experiment_verify_or_numpy():
    out = run_script("""
        import sys
        import repro.fleet.__main__

        loaded = sorted(
            name for name in sys.modules
            if name.startswith(("repro.eval", "repro.verify"))
            or name == "numpy"
        )
        print(loaded)
    """)
    assert out.strip() == str(["repro.eval", "repro.eval.bench_io"])
