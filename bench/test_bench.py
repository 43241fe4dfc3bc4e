"""Tests of the benchmark itself, at tiny sizes: ``python -m pytest bench/``.

They sit outside the tier-1 suite (whose ``testpaths`` is ``tests``).
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

from bench import ROOT, SRC, load_spec

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from bench import compare  # noqa: E402
from bench.__main__ import child_timeout, parse_args, summary_line  # noqa: E402
from bench.runner import load_expected, run  # noqa: E402
from bench.workloads import (  # noqa: E402
    PAPER_MIX,
    SMALL_MIX,
    CliWorkload,
    ServeWorkload,
    SweepWorkload,
)


def tiny_workloads():
    """Every workload shape at a size that runs in seconds, one rep each."""
    workloads = [
        CliWorkload(
            "cli-protein",
            ["lenet5", "--pes", "16", "--iterations", "100", "--simulate", "20"],
        ),
        SweepWorkload("compile-sweep", graphs=["cat", "flower"], pes=[16]),
        ServeWorkload(
            "serve-paper", PAPER_MIX, interarrival=128, batch_window=64,
            pump_every=64, requests=200, kill_worker="worker-3",
        ),
        ServeWorkload(
            "serve-small", SMALL_MIX, interarrival=8, batch_window=512,
            pump_every=64, requests=200,
        ),
    ]
    for workload in workloads:
        workload.min_reps = 1
    return workloads


@pytest.fixture(scope="module")
def spec():
    return load_spec()


@pytest.fixture(scope="module")
def results(tmp_path_factory):
    trace_dir = tmp_path_factory.mktemp("trace")
    expected = load_expected()
    out = {
        w.name: run(w, seed=1, seconds=0.0, trace=True, trace_dir=trace_dir,
                    expected=expected)
        for w in tiny_workloads()
    }
    return out, trace_dir


def test_every_operation_correct(results):
    for name, result in results[0].items():
        assert result["attempted"] >= 1, name
        assert result["failed"] == 0, (name, result["problems"])


def test_metric_names_and_units_match_the_spec(results, spec):
    for name, result in results[0].items():
        for section, listed in (("metrics", spec["end_to_end"]),
                                ("layer_metrics", spec["per_layer"])):
            got = {key: value["unit"] for key, value in result[section].items()}
            assert got == {m["name"]: m["unit"] for m in listed}, (name, section)
        assert all(m["value"] > 0 for m in result["metrics"].values()), name
    for traced in (False, True):
        line = summary_line(results[0], spec, traced)
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True


def test_self_times_close_on_traced_wall(results):
    for name, result in results[0].items():
        layers = result["layers"]
        total = sum(layer["self_s"] for layer in layers.values())
        wall = result["traced_wall_s"] / result["reps"]
        assert layers["bench.driver"]["self_s"] >= 0.0, name
        assert total == pytest.approx(wall, rel=0.05), name


def test_chrome_traces_load(results):
    _, trace_dir = results
    for name in results[0]:
        with open(trace_dir / f"{name}.trace.json") as handle:
            events = json.load(handle)["traceEvents"]
        assert events and all(e["ph"] == "X" and e["dur"] >= 0 for e in events)


def test_wrong_frozen_value_fails_the_cell():
    sweep = SweepWorkload("compile-sweep", graphs=["cat", "flower"], pes=[16])
    sweep.min_reps = 1
    expected = load_expected()
    key = sweep.cell_key("cat", 16)
    assert key in expected
    tampered = copy.deepcopy(expected)
    tampered[key]["period"] += 1
    result = run(sweep, seed=1, seconds=0.0, expected=tampered)
    assert result["attempted"] == 2
    assert result["failed"] == 1
    assert key in result["problems"][0]


def test_compare_flags_a_slowdown_and_passes_identical_runs(results, spec):
    before = {"workloads": results[0]}
    rows = compare.compare(before, copy.deepcopy(before), spec)
    # Identical samples never move a median; a noisy set-up may still
    # leave a pair unresolved.
    assert {row["verdict"] for row in rows} <= {"unchanged", "unresolved"}

    slower = copy.deepcopy(before)
    result = slower["workloads"]["compile-sweep"]
    result["samples"]["run_s"] = [v * 1.2 for v in result["samples"]["run_s"]]
    rows = {row["workload"]: row for row in compare.compare(before, slower, spec)}
    assert rows["compile-sweep"]["verdict"] == "regressed"
    assert rows["serve-small"]["verdict"] in {"unchanged", "unresolved"}


def test_compare_shows_a_raw_slowdown_outside_the_verdict(results, spec):
    before = {"workloads": results[0]}
    slower = copy.deepcopy(before)
    samples = slower["workloads"]["compile-sweep"]["samples"]
    samples["run_s_raw"] = [v * 1.2 for v in samples["run_s_raw"]]
    row = next(row for row in compare.compare(before, slower, spec)
               if row["workload"] == "compile-sweep")
    assert ("run_s_raw", "regressed") in [(k, v) for k, v, _ in row["raw"]]
    assert row["verdict"] in {"unchanged", "unresolved"}
    assert "run_s_raw regressed" in compare.render([row])


def test_child_timeout_grows_with_the_run(spec):
    parse = lambda argv: parse_args(argv, spec)  # noqa: E731
    short = child_timeout(parse(["--seconds", "10"]))
    assert short < 180
    assert child_timeout(parse(["--seconds", "10", "--trace", "1"])) > short
    assert child_timeout(parse(["--seconds", "90", "--trace", "1"])) > 2 * 90


def test_compare_cli_exit_status(results, tmp_path):
    before = tmp_path / "a.json"
    after = tmp_path / "b.json"
    document = copy.deepcopy({"workloads": results[0]})
    before.write_text(json.dumps(document))
    document["workloads"]["cli-protein"]["exact"]["makespan_units"]["value"] += 1
    after.write_text(json.dumps(document))
    assert compare.main([str(before), str(before)]) == 0
    assert compare.main([str(before), str(after)]) == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "-m", "bench", "--workloads", "compile-sweep",
         "--seconds", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
