"""``python -m bench``: run the workloads, check outputs, print every metric.

Usage, from the repository root::

    python -m bench [--workloads A,B] [--seed S] [--seconds T]
                    [--trace 0|1|DIR] [--out RESULTS.json] [--regen-expected]
    python -m bench compare A.json B.json

Workloads run one at a time, each in its own child process
(:mod:`bench.runner`) with one thread. ``--trace 1`` adds a traced pass
after the measured one and reports the per-layer metrics; ``--trace DIR``
also writes ``DIR/<workload>.trace.json`` (Chrome trace events) and
``DIR/layers.json``. End-to-end numbers always come from the untraced pass.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the
``BENCHMARK.json`` end_to_end metrics (per_layer ones when traced),
keyed ``metric`` for one workload and ``workload/metric`` for several.
Exit status 0 means every operation was correct, 1 that some failed or a
workload crashed, 2 a usage error or no program to run.
"""

from __future__ import annotations

import argparse
import json
import platform
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

from bench import ROOT, SRC, load_spec
from bench.workloads import child_env

#: time a child may take beyond its measured seconds: set-ups, process
#: start and the ``min_reps`` repetitions that overrun ``--seconds``.
CHILD_MARGIN_S = 150


def child_timeout(args: argparse.Namespace) -> float:
    """Seconds after which a child is killed and its workload failed.

    The measured pass lasts about ``--seconds``; a traced pass repeats it.
    """
    return (2 if args.traced else 1) * args.seconds + CHILD_MARGIN_S


def parse_args(argv: List[str], spec: Dict[str, Any]) -> argparse.Namespace:
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(
        prog="python -m bench",
        description="Paper-scale end-to-end benchmark (see bench/README.md).",
    )
    # ``--workload NAME`` is the same option under the spelling that
    # harnesses running one workload at a time pass.
    parser.add_argument("--workloads", "--workload", default="",
                        help="comma-separated workload names (default: all)")
    parser.add_argument("--seed", type=int, default=1,
                        help="seed of the serving traces (default 1)")
    parser.add_argument(
        "--seconds", type=float, default=float(spec["run_seconds"]),
        help="measure at least this long per workload (after 3 repetitions)",
    )
    parser.add_argument("--trace", default="0", metavar="0|1|DIR",
                        help="per-layer traced pass; DIR also writes files")
    parser.add_argument("--out", type=Path, help="write all results as JSON")
    parser.add_argument(
        "--regen-expected", action="store_true",
        help="rewrite bench/expected.json from this run's outputs",
    )
    args = parser.parse_args(argv)
    chosen = [w.strip() for w in args.workloads.split(",") if w.strip()]
    unknown = sorted(set(chosen) - set(names))
    if unknown:
        parser.error(f"unknown workloads {unknown}; choose from {names}")
    args.names = chosen or names
    args.trace_dir = None if args.trace in ("0", "1") else Path(args.trace)
    args.traced = args.trace != "0"
    return args


def run_child(name: str, args: argparse.Namespace) -> Optional[Dict[str, Any]]:
    """One workload in a child process; None when it crashed or hung."""
    command = [
        sys.executable, "-m", "bench.runner", name,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", "1" if args.traced else "0",
    ]
    if args.trace_dir is not None:
        command += ["--trace-dir", str(args.trace_dir.resolve())]
    if args.regen_expected:
        command.append("--regen-expected")
    timeout = child_timeout(args)
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired:
        print(f"error: {name} ran over {timeout:g} s", file=sys.stderr)
        return None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(f"error: {name} exited {done.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def report(result: Dict[str, Any]) -> None:
    """Human-readable lines for one workload."""
    print(
        f"{result['workload']}: {result['reps']} repetitions, "
        f"{result['attempted']} operations, {result['failed']} failed"
    )
    for group in ("metrics", "details", "exact"):
        for name, metric in result[group].items():
            print(f"  {name:<24} {metric['value']:>14.6g} {metric['unit']}")
    for problem in result["problems"]:
        print(f"  FAILED {problem}")
    if "layers" in result:
        overhead = result["layer_metrics"]["bench.tracing_overhead"]["value"]
        print(f"  traced: {overhead:+.1f}% wall time over the untraced pass")
        top = sorted(result["layers"].items(),
                     key=lambda item: -item[1]["self_s"])[:6]
        for name, layer in top:
            print(f"    {name:<34} {layer['share_pct']:6.2f}% "
                  f"{layer['self_s']:10.4f} s/rep {layer['calls']:10.1f} calls")


def summary_line(
    results: Dict[str, Dict[str, Any]], spec: Dict[str, Any], traced: bool
) -> Dict[str, Any]:
    """The final JSON line; raises ValueError on a metric/unit mismatch."""
    section, listed = (
        ("layer_metrics", spec["per_layer"]) if traced
        else ("metrics", spec["end_to_end"])
    )
    metrics = {}
    for workload, result in results.items():
        for entry in listed:
            got = result[section].get(entry["name"])
            if got is None or got["unit"] != entry["unit"]:
                raise ValueError(
                    f"{workload}: metric {entry['name']!r} in {entry['unit']!r}"
                    f" missing or in another unit: {got!r}"
                )
            key = entry["name"] if len(results) == 1 else (
                f"{workload}/{entry['name']}"
            )
            metrics[key] = got
    failed = sum(r["failed"] for r in results.values())
    return {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    if argv[:1] == ["compare"]:
        from bench.compare import main as compare_main

        return compare_main(argv[1:])
    spec = load_spec()
    args = parse_args(argv, spec)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    results: Dict[str, Dict[str, Any]] = {}
    for name in args.names:
        result = run_child(name, args)
        if result is None:
            return 1
        report(result)
        results[name] = result
    if args.trace_dir is not None:
        with open(args.trace_dir / "layers.json", "w") as handle:
            json.dump({
                name: {key: r[key] for key in
                       ("reps", "traced_wall_s", "layers", "layer_metrics")}
                for name, r in results.items()
            }, handle, indent=1)
    if args.out is not None:
        with open(args.out, "w") as handle:
            json.dump({
                "seed": args.seed,
                "seconds": args.seconds,
                "python": platform.python_version(),
                "machine": platform.machine(),
                "workloads": results,
            }, handle, indent=1)
    line = summary_line(results, spec, args.traced)
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
