"""Top-level CLI: run Para-CONV on a workload and print the summary.

Usage::

    python -m repro <workload> [--pes N] [--allocator NAME] [--gantt]
    python -m repro --list
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.cnn.workloads import (
    WORKLOADS,
    UnknownWorkloadError,
    load_workload,
)
from repro.core.allocation import (
    ALLOCATORS,
    UnknownAllocatorError,
    parse_allocator_spec,
)
from repro.core.baseline import SpartaScheduler
from repro.core.gantt import render_kernel, render_retiming
from repro.core.paraconv import ParaConv
from repro.pim.config import PimConfig


def positive_int(text: str) -> int:
    """argparse type: strictly positive integer (PE/iteration counts)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def allocator_spec(text: str) -> str:
    """argparse type: registry name or budgeted spec (``anneal:5000``)."""
    try:
        parse_allocator_spec(text)
    except UnknownAllocatorError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Run the Para-CONV pipeline on a named workload.",
    )
    parser.add_argument("workload", nargs="?", help="workload name")
    parser.add_argument("--list", action="store_true", help="list workloads")
    parser.add_argument(
        "--pes", type=positive_int, default=32,
        help="number of processing engines (> 0)",
    )
    parser.add_argument(
        "--iterations", type=positive_int, default=1000,
        help="steady-state iteration count N (> 0)",
    )
    parser.add_argument(
        "--allocator", default="dp", type=allocator_spec,
        metavar="SPEC",
        help=(
            "cache-allocation strategy: one of "
            f"{', '.join(sorted(ALLOCATORS))}; search allocators accept a "
            "budget suffix, e.g. anneal:5000"
        ),
    )
    parser.add_argument(
        "--gantt", action="store_true",
        help="render the kernel Gantt chart and the retiming function",
    )
    parser.add_argument(
        "--baseline", action="store_true",
        help="also run the SPARTA baseline and report the reduction",
    )
    parser.add_argument(
        "--simulate", type=int, metavar="N", default=0,
        help="execute N iterations on the discrete-event machine model",
    )
    parser.add_argument(
        "--dot", metavar="FILE",
        help="write the annotated task graph as Graphviz DOT",
    )
    parser.add_argument(
        "--trace", metavar="FILE",
        help="with --simulate: retain every record and write a "
             "chrome://tracing JSON of the run",
    )
    parser.add_argument(
        "--liveness-aware", action="store_true",
        help="use the liveness-corrected allocation (no cache spills)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the compile pipeline: per-pass timings and the "
             "width-search explored/pruned breakdown",
    )
    parser.add_argument(
        "--no-prune", action="store_true",
        help="disable width-search pruning (exhaustive search; useful "
             "with --explain to see what pruning saves)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in WORKLOADS:
            print(name)
        return 0
    if not args.workload:
        build_parser().print_usage()
        return 2
    config = PimConfig(num_pes=args.pes, iterations=args.iterations)
    try:
        graph = load_workload(args.workload)
    except UnknownWorkloadError as exc:
        # Typed rejection, mirroring UnknownAllocatorError: name what was
        # asked for and enumerate everything that would have worked.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = ParaConv(
        config,
        allocator_name=args.allocator,
        liveness_aware=args.liveness_aware,
        prune_widths=not args.no_prune,
    ).run(graph)
    print(result.summary())
    if args.explain:
        print()
        print(result.explain())
    if args.gantt:
        print()
        print(render_kernel(result.schedule.kernel, num_pes=result.group_width))
        print()
        print(render_retiming(result.schedule))
    if args.dot:
        from repro.graph.dot import result_to_dot

        with open(args.dot, "w") as handle:
            handle.write(result_to_dot(result))
        print(f"\nDOT graph written to {args.dot}")
    if args.simulate:
        from repro.sim.executor import ScheduleExecutor
        from repro.sim.sinks import InMemorySink, NullSink

        # Only the Chrome trace export reads per-instance records; the
        # summary line below needs the exact aggregates alone.
        sink = InMemorySink() if args.trace else NullSink()
        trace = ScheduleExecutor(config, num_vaults=32).execute(
            result, iterations=args.simulate, sink=sink
        )
        print(
            f"\nSimulated {args.simulate} iterations: realized "
            f"{trace.realized_makespan} vs analytic {trace.analytic_makespan} "
            f"(slowdown {trace.slowdown:.3f}, max lateness "
            f"{trace.max_lateness}, spills {trace.cache_spills})"
        )
        if args.trace:
            from repro.sim.chrome_trace import write_chrome_trace

            write_chrome_trace(trace, args.trace)
            print(f"chrome://tracing JSON written to {args.trace}")
    if args.baseline:
        sparta = SpartaScheduler(config).run(graph)
        reduction = (
            (sparta.total_time() - result.total_time())
            / sparta.total_time() * 100.0
        )
        print()
        print(
            f"SPARTA baseline: {sparta.total_time()} units "
            f"(groups {sparta.num_groups} x {sparta.group_width} PEs, "
            f"L = {sparta.iteration_length}); "
            f"Para-CONV reduction {reduction:.2f}%"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
