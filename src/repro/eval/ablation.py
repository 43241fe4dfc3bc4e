"""Ablation A1: cache-allocation strategy comparison.

The paper's design choice under test is the dynamic program of Section 3.3.
This experiment swaps it for the alternatives in
:mod:`repro.core.allocation` -- density-greedy, random first-fit, all-eDRAM
(no cache), the capacity-oblivious oracle and the critical-path-aware
iterative extension (:mod:`repro.core.iterative`) -- and measures total
execution time, ``R_max`` and the captured profit on each benchmark.

Expected shape: DP >= greedy >= random >= all-eDRAM in profit, with the
oracle an unreachable upper bound whenever capacity binds; the DP's profit
advantage translates into shorter prologues and (on prologue-sensitive
workloads) shorter total times.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from repro.cnn.workloads import PAPER_BENCHMARKS, load_workload
from repro.core.allocation import ALLOCATORS
from repro.core.paraconv import ParaConv
from repro.eval.reporting import format_table
from repro.pim.config import PimConfig

#: Strategies compared, in presentation order.
STRATEGIES = ("dp", "iterative", "greedy", "random", "all-edram", "oracle")


@dataclass(frozen=True)
class AblationCell:
    total_time: int
    max_retiming: int
    profit: int
    num_cached: int


@dataclass(frozen=True)
class AblationRow:
    benchmark: str
    cells: Dict[str, AblationCell]

    def regression_vs_dp(self, strategy: str) -> float:
        """Relative total-time increase of ``strategy`` over the DP."""
        dp_time = self.cells["dp"].total_time
        if dp_time == 0:
            return 0.0
        return (self.cells[strategy].total_time - dp_time) / dp_time


def run_ablation(
    base_config: Optional[PimConfig] = None,
    benchmarks: Optional[Sequence[str]] = None,
    pes: int = 32,
    strategies: Sequence[str] = STRATEGIES,
) -> List[AblationRow]:
    config = (base_config or PimConfig()).with_pes(pes)
    names = list(benchmarks) if benchmarks is not None else list(PAPER_BENCHMARKS)
    unknown = set(strategies) - set(ALLOCATORS)
    if unknown:
        raise ValueError(f"unknown strategies: {sorted(unknown)}")
    rows: List[AblationRow] = []
    for name in names:
        graph = load_workload(name)
        cells: Dict[str, AblationCell] = {}
        # Fixed full-array mapping so every strategy solves the same
        # allocation instance (the width optimizer would otherwise pick
        # different operating points per strategy). The allocator-
        # independent prefix — graph validation, kernel compaction, edge
        # analysis, zero-ΔR prepass — is compiled ONCE per benchmark and
        # forked per strategy, so the sweep only re-runs the passes that
        # actually differ (dp-allocate onward). Each strategy's plan is
        # bit-identical to a from-scratch ``run_at_width`` (the prefix
        # passes are deterministic and allocator-blind).
        shared = ParaConv(config, allocator_name=strategies[0]).analysis_context(
            graph, pes
        )
        for strategy in strategies:
            result = ParaConv(config, allocator_name=strategy).run_from_context(
                shared.fork()
            )
            cells[strategy] = AblationCell(
                total_time=result.total_time(),
                max_retiming=result.max_retiming,
                profit=result.allocation.total_delta_r,
                num_cached=result.num_cached,
            )
        rows.append(AblationRow(benchmark=name, cells=cells))
    return rows


def render_ablation(rows: Sequence[AblationRow]) -> str:
    strategies = list(next(iter(rows)).cells) if rows else []
    headers = ["benchmark"]
    for strategy in strategies:
        headers += [f"{strategy}:time", f"{strategy}:R", f"{strategy}:profit"]
    body = []
    for row in rows:
        line: List[object] = [row.benchmark]
        for strategy in strategies:
            cell = row.cells[strategy]
            line += [cell.total_time, cell.max_retiming, cell.profit]
        body.append(line)
    return format_table(
        headers, body,
        title="Ablation A1: cache-allocation strategies (32 PEs)",
    )
