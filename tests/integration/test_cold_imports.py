"""What each entry point loads, checked in a fresh interpreter.

Compiling with the default DP, simulating and serving never load numpy,
the fleet loads none of the eval experiments, and the allocator registry
is the same whatever a process imported first. Each check runs in a
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


def run_fresh(script: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH", "")) if p
    )
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script)],
        capture_output=True, text=True, timeout=240, env=env,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_and_fleet_paths_import_no_numpy(tmp_path):
    out = run_fresh(f"""
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


def test_lazy_exports_resolve():
    out = run_fresh("""
        import sys
        import repro
        import repro.core

        assert "repro.runtime" not in sys.modules
        from repro.runtime.session import InferenceSession
        assert repro.InferenceSession is InferenceSession
        namespace = {}
        exec("from repro import *", namespace)
        assert set(repro.__all__) <= set(namespace)
        assert namespace["PlanCache"].__module__ == "repro.runtime.plan_cache"
        try:
            repro.no_such_name
        except AttributeError as exc:
            print(exc)
    """)
    assert "has no attribute 'no_such_name'" in out


#: The registry every process sees, whatever it imported first.
REGISTRY = ["all-edram", "dp", "greedy", "iterative", "oracle", "random"]


@pytest.mark.parametrize(
    "entry", ["repro.__main__", "repro.runtime.session", "repro.verify"]
)
def test_allocator_registry_is_the_same_in_every_process(entry):
    out = run_fresh(f"""
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
    out = run_fresh("""
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
