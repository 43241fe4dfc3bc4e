"""Verification CLI.

Usage::

    python -m repro.verify                       # schedule battery, 12 benchmarks
    python -m repro.verify --benchmarks cat car  # subset
    python -m repro.verify --allocators dp greedy --pes 32
    python -m repro.verify --strict-liveness     # escalate liveness warnings
    python -m repro.verify --no-oracle --no-mutations
    python -m repro.verify --sim --sim-iterations 1 20 1000
    python -m repro.verify --faults --fleet      # add batteries by name
    python -m repro.verify --all                 # every registered battery
    python -m repro.verify --list-checks         # print the check catalog
    python -m repro.verify --json                # machine-readable output

The schedule battery always runs; every other battery in
:data:`~repro.verify.runner.BATTERIES` runs under its own ``--<name>``
flag or ``--all``. Each prints one line per case, then one summary row
per battery and one overall line. Exit status is non-zero when any case
of any battery that ran failed — suitable as a CI gate.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional

from repro.cnn.workloads import WORKLOADS
from repro.core.allocation import ALLOCATORS
from repro.verify.harness import CaseReport, battery_ok, positive_int
from repro.verify.runner import BATTERIES
from repro.verify.validator import CHECK_CATALOG, ScheduleValidator


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.verify",
        description=(
            "Machine-check Para-CONV schedules against the paper's "
            "invariants and hold every serving tier to a cold-compile "
            "reference. Batteries: "
            + ", ".join(battery.name for battery in BATTERIES)
            + "."
        ),
    )
    parser.add_argument(
        "--benchmarks", nargs="+", metavar="NAME", default=None,
        choices=sorted(WORKLOADS),
        help="workloads to sweep — any registry name, including the "
             "randwired-* irregular graphs (default: all 12 paper "
             "benchmarks)",
    )
    parser.add_argument(
        "--allocators", nargs="+", metavar="NAME", default=None,
        choices=sorted(ALLOCATORS),
        help="allocators to validate (default: every registered allocator)",
    )
    parser.add_argument("--pes", type=positive_int, default=16,
                        help="PE count of the machine (default 16)")
    parser.add_argument("--iterations", type=positive_int, default=1000,
                        help="width-search iteration count N (default 1000)")
    parser.add_argument("--strict-liveness", action="store_true",
                        help="treat liveness-point cache overflows as errors")
    parser.add_argument("--unroll", type=positive_int, default=3,
                        help="steady-state iterations to unroll (default 3)")
    parser.add_argument("--seed", type=int, default=0,
                        help="fault-injection seed (default 0)")
    for battery in BATTERIES:
        if not battery.always:
            parser.add_argument(f"--{battery.name}", action="store_true",
                                help=battery.help)
        for flags, kwargs in battery.options:
            parser.add_argument(*flags, **kwargs)
    selectable = " ".join(f"--{b.name}" for b in BATTERIES if not b.always)
    parser.add_argument("--all", action="store_true", dest="all_batteries",
                        help=f"run every battery ({selectable}) and print "
                             "a per-battery ok/FAIL summary")
    parser.add_argument("--json", action="store_true",
                        help="emit the full outcome as JSON")
    parser.add_argument("--list-checks", action="store_true",
                        help="print the invariant-check catalog and exit")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_checks:
        width = max(len(name) for name in CHECK_CATALOG)
        for name, description in CHECK_CATALOG.items():
            print(f"{name:<{width}}  {description}")
        return 0

    validator = ScheduleValidator(
        strict_liveness=args.strict_liveness, unroll_iterations=args.unroll
    )
    results: Dict[str, List[CaseReport]] = {
        battery.name: battery.run(args, validator)
        for battery in BATTERIES
        if battery.always or args.all_batteries or getattr(args, battery.name)
    }
    ok = all(battery_ok(reports) for reports in results.values())
    if args.json:
        payload: Dict[str, object] = {"ok": ok}
        for battery in BATTERIES:
            reports = results.get(battery.name)
            payload[battery.name] = (
                None if reports is None else [r.as_dict() for r in reports]
            )
        print(json.dumps(payload, indent=2))
    else:
        for reports in results.values():
            for report in reports:
                print(report.describe())
        for name, reports in results.items():
            passed = sum(1 for report in reports if report.ok)
            verdict = "ok" if battery_ok(reports) else "FAIL"
            print(f"battery {name:<8} {verdict:<4} [{passed}/{len(reports)}]")
        print(f"overall: {'ok' if ok else 'FAIL'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
