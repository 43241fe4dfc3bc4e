"""Machine-checking every emitted schedule against the paper's invariants.

:class:`ScheduleValidator` takes a complete :class:`ParaConvResult` (the
pipeline's deployable artifact) and re-derives, independently of the
pipeline, whether it satisfies the catalog of Para-CONV invariants:

====================== ==================================================
check                  paper claim it certifies
====================== ==================================================
``kernel-resources``   one placement per op, exact durations, windows
                       inside ``[0, p]``, PEs inside the group
``pe-exclusion``       no two operations overlap on the same PE
``retiming-legality``  Definition 3.1: ``R(i) >= R(i,j) >= R(j) >= 0``
``dependency-order``   topological order across retimed iteration
                       instances — unrolled producer instances finish
                       (data arrived) before consumer instances start
``theorem-3.1``        ``c_ij <= p`` and required relative retiming
                       ``<= 2`` on every edge
``period``             steady-state period matches the kernel and admits
                       every operation
``prologue``           prologue length is exactly ``R_max * p`` and the
                       prologue rounds grow monotonically into the kernel
``allocation``         allocation profit accounting consistent with
                       ``ΔR(m)``; transfer times match placements; the
                       placement map covers exactly the graph's edges
``cache-capacity``     the data cache is never over-committed — by the
                       paper's single-charge accounting (error) and at
                       every steady-state liveness point (warning, or
                       error under ``strict_liveness``)
``grouping``           PE-group decomposition fits the machine and the
                       allocator saw the per-group capacity share
====================== ==================================================

Every failed assertion becomes a structured
:class:`~repro.verify.violations.Violation`; nothing raises mid-flight, so
one run reports *all* problems of a corrupt schedule (which the
fault-injection suite relies on).
"""

from __future__ import annotations

import math
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple

from repro.core.paraconv import ParaConvResult
from repro.core.retiming import EdgeTiming, analyze_edges
from repro.core.schedule import PeriodicSchedule
from repro.verify.violations import Severity, VerificationReport

EdgeKey = Tuple[int, int]

#: name -> one-line description of every check the validator runs.
CHECK_CATALOG: Dict[str, str] = {
    "kernel-resources": (
        "every operation placed exactly once, with its exact execution "
        "time, inside [0, period], on a PE of its group"
    ),
    "pe-exclusion": "no two operations overlap on the same PE",
    "retiming-legality": (
        "Definition 3.1 legality: R(i) >= R(i,j) >= R(j) and R >= 0 "
        "for every operation and intermediate result"
    ),
    "dependency-order": (
        "unrolled retimed instances respect topological dependency order: "
        "producer data (incl. transfer) arrives before the consumer starts"
    ),
    "theorem-3.1": (
        "per-edge transfer <= period and required relative retiming <= 2"
    ),
    "period": "kernel fits its period; result and kernel agree on p",
    "prologue": "prologue is exactly R_max * p with monotone rounds",
    "allocation": (
        "placement map covers the graph; profit equals sum of DR(m) over "
        "cached results; transfer times match placements"
    ),
    "cache-capacity": (
        "cache never over-committed: single-charge accounting (error) and "
        "liveness-point peak occupancy (warning / strict error)"
    ),
    "grouping": "group decomposition tiles the machine; capacity share OK",
}

#: Allocators that are capacity-oblivious *by design* (ablation upper
#: bounds); capacity feasibility is skipped for their plans.
CAPACITY_OBLIVIOUS_METHODS: FrozenSet[str] = frozenset({"oracle"})


class ScheduleValidator:
    """Independent checker of compiled Para-CONV plans.

    Args:
        strict_liveness: escalate liveness-point cache overflows from
            warnings to errors. The paper's Section 3.3 accounting charges
            each cached result once, so pipeline-default plans may carry
            transient overflows (see :mod:`repro.core.liveness`); strict
            mode is what ``liveness_aware=True`` plans are held to.
        unroll_iterations: steady-state iterations to unroll (on top of the
            prologue) for the instance-level dependency check. Two periods
            already expose any cross-iteration violation (the schedule is
            periodic); more just re-checks the same offsets.
        oblivious_methods: allocation methods exempt from the capacity
            check (capacity-oblivious ablation baselines).
    """

    def __init__(
        self,
        strict_liveness: bool = False,
        unroll_iterations: int = 3,
        oblivious_methods: FrozenSet[str] = CAPACITY_OBLIVIOUS_METHODS,
    ):
        if unroll_iterations < 1:
            raise ValueError("unroll_iterations must be >= 1")
        self.strict_liveness = strict_liveness
        self.unroll_iterations = unroll_iterations
        self.oblivious_methods = oblivious_methods

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------
    def validate(self, result: ParaConvResult) -> VerificationReport:
        """Run the full catalog against one compiled plan."""
        report = VerificationReport(
            subject=f"{result.graph.name} [{result.allocation.method}]"
        )
        schedule = result.schedule
        timings = self._safe_timings(result, report)

        self._check_kernel_resources(result, report)
        self._check_pe_exclusion(schedule, report)
        self._check_retiming_legality(schedule, report)
        self._check_dependency_order(schedule, report)
        self._check_theorem_bound(schedule, report)
        self._check_period(result, report)
        self._check_prologue(result, report)
        self._check_allocation(result, timings, report)
        self._check_cache_capacity(result, timings, report)
        self._check_grouping(result, report)
        return report

    # keep the instance callable as a plain function
    __call__ = validate

    # ------------------------------------------------------------------
    # individual checks
    # ------------------------------------------------------------------
    def _safe_timings(
        self, result: ParaConvResult, report: VerificationReport
    ) -> Optional[Mapping[EdgeKey, EdgeTiming]]:
        """Re-derive the Section 3.2 edge analysis for cross-checks.

        The analysis itself can fail on corrupted kernels (e.g. missing
        placements); that is reported once here and the dependent checks
        degrade gracefully.
        """
        try:
            return analyze_edges(result.graph, result.schedule.kernel, result.config)
        except Exception as exc:  # corrupt kernel/config: report, not crash
            report.add(
                "allocation",
                f"edge re-analysis impossible on this plan: {exc}",
            )
            return None

    def _check_kernel_resources(
        self, result: ParaConvResult, report: VerificationReport
    ) -> None:
        report.checks_run.append("kernel-resources")
        graph = result.graph
        kernel = result.schedule.kernel
        width = result.group_width
        op_ids = {op.op_id for op in graph.operations()}
        placed = set(kernel.op_ids)
        for op_id in sorted(op_ids - placed):
            report.add("kernel-resources", "operation missing from kernel", op_id)
        for op_id in sorted(placed - op_ids):
            report.add("kernel-resources", "kernel places unknown operation", op_id)
        for op_id, pe, start, finish in zip(
            kernel.op_ids, kernel.pe, kernel.start, kernel.finish
        ):
            if op_id not in op_ids:
                continue
            expected = graph.operation(op_id).execution_time
            if finish - start != expected:
                report.add(
                    "kernel-resources",
                    f"occupies {finish - start} units, execution time "
                    f"is {expected}",
                    op_id,
                )
            if start < 0 or finish > kernel.period:
                report.add(
                    "kernel-resources",
                    f"window [{start}, {finish}) outside "
                    f"[0, {kernel.period}]",
                    op_id,
                )
            if not 0 <= pe < width:
                report.add(
                    "kernel-resources",
                    f"placed on PE {pe} outside group width {width}",
                    op_id,
                )

    def _check_pe_exclusion(
        self, schedule: PeriodicSchedule, report: VerificationReport
    ) -> None:
        report.checks_run.append("pe-exclusion")
        kernel = schedule.kernel
        per_pe: Dict[int, List[Tuple[int, int, int]]] = {}
        for op_id, pe, start, finish in zip(
            kernel.op_ids, kernel.pe, kernel.start, kernel.finish
        ):
            per_pe.setdefault(pe, []).append((start, op_id, finish))
        for pe, windows in per_pe.items():
            windows.sort()
            for (l_start, left, l_finish), (r_start, right, r_finish) in zip(
                windows, windows[1:]
            ):
                if r_start < l_finish:
                    report.add(
                        "pe-exclusion",
                        f"ops {left} and {right} overlap on PE "
                        f"{pe} ([{l_start},{l_finish}) vs "
                        f"[{r_start},{r_finish}))",
                        (left, right),
                    )

    def _check_retiming_legality(
        self, schedule: PeriodicSchedule, report: VerificationReport
    ) -> None:
        report.checks_run.append("retiming-legality")
        graph = schedule.graph
        for op in graph.operations():
            r = schedule.retiming.get(op.op_id)
            if r is None:
                report.add("retiming-legality", "no retiming value", op.op_id)
            elif r < 0:
                report.add(
                    "retiming-legality", f"negative retiming {r}", op.op_id
                )
        for edge in graph.edges():
            key = edge.key
            r_i = schedule.retiming.get(edge.producer)
            r_j = schedule.retiming.get(edge.consumer)
            if r_i is None or r_j is None:
                continue  # already reported above
            r_ij = schedule.edge_retiming.get(key)
            if r_ij is None:
                report.add("retiming-legality", "missing R(i,j)", key)
            elif not r_i >= r_ij >= r_j:
                report.add(
                    "retiming-legality",
                    f"R(i)={r_i} >= R(i,j)={r_ij} >= R(j)={r_j} violated",
                    key,
                )
            if r_i - r_j < 0:
                report.add(
                    "retiming-legality",
                    f"R(i)={r_i} < R(j)={r_j} reverses the dependency",
                    key,
                )

    def _check_dependency_order(
        self, schedule: PeriodicSchedule, report: VerificationReport
    ) -> None:
        """Unroll prologue + ``unroll_iterations`` periods instance by instance.

        Instance ``l`` of operation ``i`` runs in round
        ``l + R_max - R(i)`` at absolute time ``(round-1)*p + s_i``; the
        edge ``(i, j)`` carries data from producer instance ``l`` to
        consumer instance ``l``. The check asserts, in absolute time, that
        the data (including its placement-dependent transfer) has arrived
        when the consumer instance starts — precisely the semantics the
        discrete-event executor implements.
        """
        report.checks_run.append("dependency-order")
        graph = schedule.graph
        kernel = schedule.kernel
        period = schedule.period
        if period <= 0:
            report.add("dependency-order", f"non-positive period {period}")
            return
        r_max = max(
            (r for r in schedule.retiming.values() if r is not None), default=0
        )
        for edge in graph.edges():
            key = edge.key
            r_i = schedule.retiming.get(edge.producer)
            r_j = schedule.retiming.get(edge.consumer)
            transfer = schedule.transfer_times.get(key)
            if transfer is None:
                report.add("dependency-order", "missing transfer time", key)
                continue
            if r_i is None or r_j is None:
                continue  # reported by retiming-legality
            try:
                finish_i = kernel.placement(edge.producer).finish
                start_j = kernel.placement(edge.consumer).start
            except Exception:
                continue  # reported by kernel-resources
            for iteration in range(1, self.unroll_iterations + 1):
                round_i = iteration + r_max - r_i
                round_j = iteration + r_max - r_j
                arrival = (round_i - 1) * period + finish_i + transfer
                starts = (round_j - 1) * period + start_j
                if arrival > starts:
                    report.add(
                        "dependency-order",
                        f"instance {iteration}: producer data arrives at "
                        f"{arrival} but consumer starts at {starts} "
                        f"(rounds {round_i}->{round_j}, p={period})",
                        key,
                    )
                    break  # periodic: later iterations repeat the offence

    def _check_theorem_bound(
        self, schedule: PeriodicSchedule, report: VerificationReport
    ) -> None:
        report.checks_run.append("theorem-3.1")
        kernel = schedule.kernel
        period = schedule.period
        if period <= 0:
            return  # reported by period check
        for edge in schedule.graph.edges():
            key = edge.key
            transfer = schedule.transfer_times.get(key)
            if transfer is None:
                report.add("theorem-3.1", "missing transfer time", key)
                continue
            if transfer < 0:
                report.add("theorem-3.1", f"negative transfer {transfer}", key)
                continue
            if transfer > period:
                report.add(
                    "theorem-3.1",
                    f"transfer {transfer} exceeds period {period} "
                    "(premise c_ij <= p)",
                    key,
                )
                continue
            try:
                gap = (
                    kernel.placement(edge.producer).finish
                    + transfer
                    - kernel.placement(edge.consumer).start
                )
            except Exception:
                continue  # reported by kernel-resources
            required = max(0, math.ceil(gap / period))
            if required > 2:
                report.add(
                    "theorem-3.1",
                    f"required relative retiming {required} exceeds the "
                    "Theorem 3.1 bound of 2",
                    key,
                )

    def _check_period(
        self, result: ParaConvResult, report: VerificationReport
    ) -> None:
        report.checks_run.append("period")
        kernel = result.schedule.kernel
        period = kernel.period
        if period <= 0:
            report.add("period", f"non-positive period {period}")
            return
        makespan = kernel.makespan()
        if makespan > period:
            report.add(
                "period",
                f"kernel makespan {makespan} exceeds period {period}",
            )
        if result.period != period:
            report.add(
                "period",
                f"result reports period {result.period}, kernel says {period}",
            )
        longest = result.graph.max_execution_time()
        if longest > period:
            report.add(
                "period",
                f"period {period} cannot admit the longest operation "
                f"({longest} units)",
            )

    def _check_prologue(
        self, result: ParaConvResult, report: VerificationReport
    ) -> None:
        report.checks_run.append("prologue")
        schedule = result.schedule
        retimings = [r for r in schedule.retiming.values() if r is not None]
        r_max = max(retimings, default=0)
        if schedule.max_retiming != r_max:
            report.add(
                "prologue",
                f"max_retiming reports {schedule.max_retiming}, retiming "
                f"function peaks at {r_max}",
            )
        expected = r_max * schedule.period
        if result.prologue_time != expected:
            report.add(
                "prologue",
                f"prologue time {result.prologue_time} != R_max * p = "
                f"{r_max} * {schedule.period} = {expected}",
            )
        if any(r < 0 for r in retimings):
            return  # rounds are meaningless; retiming-legality reported it
        rounds = schedule.prologue_rounds()
        if len(rounds) != r_max:
            report.add(
                "prologue",
                f"{len(rounds)} prologue rounds for R_max {r_max}",
            )
        for earlier, later in zip(rounds, rounds[1:]):
            if not set(earlier) <= set(later):
                report.add(
                    "prologue",
                    "prologue rounds are not monotonically filling "
                    f"({sorted(set(earlier) - set(later))} drop out)",
                )
                break

    def _check_allocation(
        self,
        result: ParaConvResult,
        timings: Optional[Mapping[EdgeKey, EdgeTiming]],
        report: VerificationReport,
    ) -> None:
        report.checks_run.append("allocation")
        graph = result.graph
        schedule = result.schedule
        allocation = result.allocation
        edge_keys = {edge.key for edge in graph.edges()}

        for name, mapping in (
            ("schedule placements", schedule.placements),
            ("allocation placements", allocation.placements),
        ):
            missing = edge_keys - set(mapping)
            extra = set(mapping) - edge_keys
            for key in sorted(missing):
                report.add("allocation", f"{name}: missing entry", key)
            for key in sorted(extra):
                report.add("allocation", f"{name}: entry for unknown edge", key)

        for key in edge_keys & set(schedule.placements) & set(
            allocation.placements
        ):
            if schedule.placements[key] is not allocation.placements[key]:
                report.add(
                    "allocation",
                    "schedule and allocation disagree on placement "
                    f"({schedule.placements[key].value} vs "
                    f"{allocation.placements[key].value})",
                    key,
                )

        from repro.pim.memory import Placement

        cached_from_map = {
            key
            for key, placement in allocation.placements.items()
            if placement is Placement.CACHE
        }
        if set(allocation.cached) != cached_from_map:
            report.add(
                "allocation",
                f"cached list ({sorted(allocation.cached)[:4]}...) does not "
                "match CACHE placements",
            )

        if timings is None:
            return
        # Profit accounting: Sum of DR(m) over cached edges (Section 3.3).
        expected_profit = sum(
            timings[key].delta_r for key in cached_from_map if key in timings
        )
        if allocation.total_delta_r != expected_profit:
            report.add(
                "allocation",
                f"profit accounting: total_delta_r={allocation.total_delta_r} "
                f"but sum of DR(m) over cached results is {expected_profit}",
            )
        # Slot accounting: at least the single-charge footprint (liveness-
        # aware plans legitimately charge more per item, never less).
        base_slots = sum(
            timings[key].slots for key in cached_from_map if key in timings
        )
        if allocation.slots_used < base_slots:
            report.add(
                "allocation",
                f"slot accounting: slots_used={allocation.slots_used} below "
                f"the single-charge footprint {base_slots} of the cached set",
            )
        # Transfer times must match the placement actually recorded.
        for key in edge_keys & set(schedule.placements):
            if key not in timings or key not in schedule.transfer_times:
                continue
            expected_transfer = timings[key].transfer_for(
                schedule.placements[key]
            )
            if schedule.transfer_times[key] != expected_transfer:
                report.add(
                    "allocation",
                    f"transfer time {schedule.transfer_times[key]} does not "
                    f"match the {schedule.placements[key].value} placement "
                    f"(expected {expected_transfer})",
                    key,
                )

    def _check_cache_capacity(
        self,
        result: ParaConvResult,
        timings: Optional[Mapping[EdgeKey, EdgeTiming]],
        report: VerificationReport,
    ) -> None:
        allocation = result.allocation
        if allocation.method in self.oblivious_methods:
            report.skip(
                "cache-capacity",
                f"allocator {allocation.method!r} is capacity-oblivious by "
                "design (ablation upper bound)",
            )
            return
        report.checks_run.append("cache-capacity")
        if allocation.slots_used > allocation.capacity_slots:
            report.add(
                "cache-capacity",
                f"allocation charges {allocation.slots_used} slots against "
                f"capacity {allocation.capacity_slots}",
            )
        if timings is None:
            return
        peak, offset = self._liveness_peak(result, timings)
        if peak > allocation.capacity_slots:
            report.add(
                "cache-capacity",
                f"liveness-point occupancy peaks at {peak} slots (offset "
                f"{offset} of the period) against capacity "
                f"{allocation.capacity_slots}; the paper's single-charge "
                "accounting admits this transient overflow "
                "(repro.core.liveness documents the gap)",
                severity=(
                    Severity.ERROR if self.strict_liveness else Severity.WARNING
                ),
            )

    def _liveness_peak(
        self,
        result: ParaConvResult,
        timings: Mapping[EdgeKey, EdgeTiming],
    ) -> Tuple[int, int]:
        """Steady-state peak cache occupancy at any liveness point.

        A cached instance of edge ``(i, j)`` with realized relative
        retiming ``delta`` is live from the producer's finish to the
        consumer's start ``delta`` periods later. In steady state the
        occupancy at offset ``t`` of the period is the number of live
        instances summed over cached edges; it changes only at finish/start
        offsets, so evaluating there suffices.
        """
        from repro.pim.memory import Placement

        schedule = result.schedule
        kernel = schedule.kernel
        period = schedule.period
        if period <= 0:
            return 0, 0
        windows = []  # (finish_i, delta*p + start_j, slots)
        offsets = {0}
        for key, placement in schedule.placements.items():
            if placement is not Placement.CACHE or key not in timings:
                continue
            producer, consumer = key
            r_i = schedule.retiming.get(producer)
            r_j = schedule.retiming.get(consumer)
            if r_i is None or r_j is None or r_i < r_j:
                continue
            try:
                finish_i = kernel.placement(producer).finish
                start_j = kernel.placement(consumer).start
            except Exception:
                continue
            delta = r_i - r_j
            windows.append((finish_i, delta * period + start_j, timings[key].slots))
            offsets.add(finish_i % period)
            offsets.add(start_j % period)
        peak, peak_at = 0, 0
        for t in sorted(offsets):
            occupancy = 0
            for begin, end, slots in windows:
                live = 0
                # instances produced 0..delta+1 periods ago
                m = 0
                while t + m * period < end:
                    if t + m * period >= begin:
                        live += 1
                    m += 1
                occupancy += live * slots
            if occupancy > peak:
                peak, peak_at = occupancy, t
        return peak, peak_at

    def _check_grouping(
        self, result: ParaConvResult, report: VerificationReport
    ) -> None:
        report.checks_run.append("grouping")
        config = result.config
        if result.group_width < 1:
            report.add("grouping", f"group width {result.group_width} < 1")
        if result.num_groups < 1:
            report.add("grouping", f"num_groups {result.num_groups} < 1")
        if result.group_width * result.num_groups > config.num_pes:
            report.add(
                "grouping",
                f"{result.num_groups} groups x {result.group_width} PEs "
                f"exceed the {config.num_pes}-PE array",
            )
        if result.num_groups >= 1:
            share = config.total_cache_slots // result.num_groups
            if result.allocation.capacity_slots > share:
                report.add(
                    "grouping",
                    f"allocator saw capacity {result.allocation.capacity_slots} "
                    f"slots but the per-group share is {share}",
                )
