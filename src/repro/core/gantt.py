"""ASCII Gantt rendering of kernels and periodic schedules.

Debugging and documentation aid: renders one kernel window per PE row,
like the paper's Figure 3 timelines. Example output::

    PE0 |T0 T0 T3 .  .  |
    PE1 |T1 T2 T2 T4 .  |

Each column is one time unit; ``.`` is idle; labels truncate to fit.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.core.schedule import KernelSchedule, PeriodicSchedule, ScheduleError


def render_kernel(
    kernel: KernelSchedule,
    num_pes: Optional[int] = None,
    cell_width: int = 4,
    labels: Optional[Dict[int, str]] = None,
) -> str:
    """Render one kernel window as an ASCII Gantt chart."""
    if cell_width < 2:
        raise ScheduleError("cell_width must be >= 2")
    if not kernel.op_ids:
        return "(empty kernel)"
    pes = sorted(set(kernel.pe))
    if num_pes is not None:
        pes = list(range(num_pes))
    period = kernel.period
    grid: Dict[int, List[str]] = {
        pe: ["." .ljust(cell_width - 1)] * period for pe in pes
    }
    for op_id, pe, start, finish in zip(
        kernel.op_ids, kernel.pe, kernel.start, kernel.finish
    ):
        label = (labels or {}).get(op_id, f"T{op_id}")
        label = label[: cell_width - 1]
        for t in range(start, finish):
            grid[pe][t] = label.ljust(cell_width - 1)
    lines = []
    header = "     " + " ".join(
        str(t).ljust(cell_width - 1) for t in range(period)
    )
    lines.append(header)
    for pe in pes:
        lines.append(f"PE{pe:<2d} " + " ".join(grid[pe]))
    return "\n".join(lines)


def render_expanded(
    schedule: PeriodicSchedule,
    iterations: int,
    cell_width: int = 6,
    max_columns: int = 120,
) -> str:
    """Render a whole run (prologue + N iterations) as one Gantt chart.

    Labels carry the instance's logical iteration (``T3.2`` = iteration 2
    of operation 3), so the software-pipelined structure -- several
    iterations in flight per round -- is visible at a glance, like the
    paper's Figure 3(b). Output is truncated at ``max_columns`` time units.
    """
    from repro.core.expansion import expand

    if cell_width < 2:
        raise ScheduleError("cell_width must be >= 2")
    expanded = expand(schedule, iterations)
    horizon = min(expanded.makespan, max_columns)
    pes = sorted({inst.pe for inst in expanded.instances})
    grid: Dict[int, List[str]] = {
        pe: [".".ljust(cell_width - 1)] * horizon for pe in pes
    }
    for inst in expanded.instances:
        label = f"T{inst.op_id}.{inst.iteration}"[: cell_width - 1]
        for t in range(inst.start, min(inst.finish, horizon)):
            grid[inst.pe][t] = label.ljust(cell_width - 1)
    lines = [
        "     "
        + " ".join(str(t).ljust(cell_width - 1) for t in range(horizon))
    ]
    for pe in pes:
        lines.append(f"PE{pe:<2d} " + " ".join(grid[pe]))
    if expanded.makespan > horizon:
        lines.append(f"... truncated at t={horizon} "
                     f"(run ends at t={expanded.makespan})")
    return "\n".join(lines)


def render_retiming(schedule: PeriodicSchedule) -> str:
    """Render the retiming function and prologue rounds as text."""
    lines = [f"R_max = {schedule.max_retiming}  period = {schedule.period}"]
    by_value: Dict[int, List[int]] = {}
    for op_id, value in sorted(schedule.retiming.items()):
        by_value.setdefault(value, []).append(op_id)
    for value in sorted(by_value, reverse=True):
        ops = ", ".join(f"T{i}" for i in by_value[value])
        lines.append(f"  R = {value}: {ops}")
    for index, round_ops in enumerate(schedule.prologue_rounds(), start=1):
        ops = ", ".join(f"T{i}" for i in round_ops)
        lines.append(f"  prologue round {index}: {ops}")
    return "\n".join(lines)
