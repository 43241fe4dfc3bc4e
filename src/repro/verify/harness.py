"""The one shape every verification battery shares.

A *battery* holds one part of the system to a reference: the steady-state
simulator to the full unroll, a failed-over session to a cold compile on
the degraded machine, a fleet shard to a standalone server, and so on.
Every battery reports the same way -- a list of :class:`CaseReport`, one
per case it ran -- and every case compares a *candidate* against a
*reference*, recording each disagreement as a :class:`Mismatch` and each
broken invariant as a failure string.

This module holds that shape and the helpers the batteries share:

* :func:`run_case` opens a case and turns an unexpected exception into
  the case's ``error`` (a battery reports, it never crashes);
* :func:`diff_signatures` compares two aggregate-signature mappings;
* :func:`hold_to_cold_compile` compares a served trace against a cold
  compile executed on the full-unroll engine;
* :func:`replay_batches` replays served batches, one by one, on a fresh
  standalone :class:`~repro.runtime.server.BatchingServer`;
* :class:`Battery` is one entry of the registry ``python -m repro.verify``
  iterates (see :data:`repro.verify.runner.BATTERIES`).
"""

from __future__ import annotations

import argparse
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
)

from repro.core.paraconv import ParaConv, ParaConvResult
from repro.graph.generators import BENCHMARK_SIZES
from repro.graph.taskgraph import TaskGraph
from repro.pim.config import PimConfig
from repro.runtime.server import BatchingServer, RequestResult
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from repro.sim.sinks import NullSink
from repro.verify.validator import ScheduleValidator

#: Turns a case's facts into failure strings (empty when every invariant
#: holds). One per battery, so verdicts are testable on hand-built facts.
Verdict = Callable[[Mapping[str, Any]], List[str]]


@dataclass(frozen=True)
class Mismatch:
    """One field where a candidate run disagreed with its reference."""

    location: str
    field: str
    reference: object
    candidate: object

    def describe(self) -> str:
        where = f"{self.location} " if self.location else ""
        return (
            f"{where}{self.field}: reference={self.reference!r} "
            f"candidate={self.candidate!r}"
        )


@dataclass
class CaseReport:
    """Outcome of one case of one battery.

    ``facts`` holds what the case observed (JSON-serializable values);
    ``failures`` the invariants those facts broke; ``error`` the text of
    an unexpected exception. The case passes when all three of ``error``,
    ``mismatches`` and ``failures`` are empty.
    """

    battery: str
    case: str
    mismatches: List[Mismatch] = field(default_factory=list)
    failures: List[str] = field(default_factory=list)
    facts: Dict[str, object] = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None and not self.mismatches and not self.failures

    def as_dict(self) -> Dict[str, object]:
        return {
            "battery": self.battery,
            "case": self.case,
            "ok": self.ok,
            "facts": dict(self.facts),
            "mismatches": [
                {
                    "location": m.location,
                    "field": m.field,
                    "reference": repr(m.reference),
                    "candidate": repr(m.candidate),
                }
                for m in self.mismatches
            ],
            "failures": list(self.failures),
            "error": self.error,
        }

    def describe(self) -> str:
        tag = f"{self.battery}[{self.case}]"
        if self.error is not None:
            return f"{tag}: ERROR {self.error}"
        facts = " ".join(f"{key}={value}" for key, value in self.facts.items())
        facts = f" [{facts}]" if facts else ""
        if self.ok:
            return f"{tag}: ok{facts}"
        details = "; ".join(
            [m.describe() for m in self.mismatches[:5]] + self.failures[:5]
        )
        return f"{tag}: FAIL{facts} {details}"


def battery_ok(reports: Sequence[CaseReport]) -> bool:
    """A battery passes when it ran at least one case and every case passed
    (an empty battery proved nothing)."""
    return bool(reports) and all(report.ok for report in reports)


@contextmanager
def run_case(
    battery: str, case: str, verdict: Optional[Verdict] = None
) -> Iterator[CaseReport]:
    """Open one case; on a clean exit, apply ``verdict`` to its facts.

    An exception raised inside the ``with`` block is recorded as the
    case's ``error`` instead of propagating: a battery must report, not
    crash.
    """
    report = CaseReport(battery=battery, case=case)
    try:
        yield report
    except Exception as exc:  # noqa: BLE001 — a battery must report, not crash
        report.error = f"{type(exc).__name__}: {exc}"
    else:
        if verdict is not None:
            report.failures.extend(verdict(report.facts))


def diff_signatures(
    reference: Mapping[str, object],
    candidate: Mapping[str, object],
    location: str = "",
) -> List[Mismatch]:
    """Every key where two aggregate signatures differ, in sorted order."""
    return [
        Mismatch(location, key, reference.get(key), candidate.get(key))
        for key in sorted(set(reference) | set(candidate))
        if reference.get(key) != candidate.get(key)
    ]


def full_unroll_signature(
    plan: ParaConvResult,
    config: PimConfig,
    iterations: int,
) -> Dict[str, object]:
    """The reference aggregates: ``plan`` run event by event on a fresh
    machine (the signature is sink-independent, so a :class:`NullSink`)."""
    return ScheduleExecutor(config, mode=SimMode.FULL_UNROLL).execute(
        plan, iterations=iterations, sink=NullSink()
    ).aggregate_signature()


def hold_to_cold_compile(
    report: CaseReport,
    candidate: Mapping[str, object],
    graph: TaskGraph,
    config: PimConfig,
    iterations: int,
    allocator: str,
    validator: ScheduleValidator,
) -> None:
    """Hold a served trace's signature to a cold compile of ``graph``.

    The cold plan is compiled from scratch on ``config`` and executed on
    the full-unroll engine; every signature field must match exactly, and
    the cold plan must pass the full validator.
    """
    plan = ParaConv(config, allocator_name=allocator).run(graph)
    reference = full_unroll_signature(plan, config, iterations)
    report.mismatches.extend(diff_signatures(reference, candidate))
    report.failures.extend(
        f"cold plan: {violation}" for violation in validator.validate(plan).errors()
    )


def replay_batches(
    report: CaseReport,
    location: str,
    results: Sequence[RequestResult],
    config: PimConfig,
    batch_window: int,
    allocator: str,
) -> Optional[BatchingServer]:
    """Replay served batches on a fresh standalone server over ``config``.

    Batch composition is taken as given (grouped by ``batch_id``); each
    batch is re-submitted to a private-cache server and executed as one
    batch. Same composition in, same per-request ``sim_latency`` and batch
    size out -- or the tier under test changed *what* was computed, not
    just when. Counts ``replayed_batches`` in the report's facts and
    returns the standalone server (None when nothing was served).
    """
    if not results:
        return None
    baseline = BatchingServer(
        config,
        batch_window=batch_window,
        max_queue=max(batch_window, len(results)),
        allocator=allocator,
    )
    batches: Dict[int, List[RequestResult]] = {}
    for res in results:
        batches.setdefault(res.batch_id, []).append(res)
    for batch_id in sorted(batches):
        served = batches[batch_id]
        for res in served:
            baseline.submit(res.request.workload, iterations=res.request.iterations)
        replay = baseline.step()
        report.facts["replayed_batches"] = (
            int(report.facts.get("replayed_batches", 0)) + 1
        )
        where = f"{location} batch {batch_id}"
        if len(replay) != len(served):  # pragma: no cover - defensive
            report.mismatches.append(
                Mismatch(where, "batch_size", len(replay), len(served))
            )
            continue
        for res, base in zip(served, replay):
            for name in ("sim_latency", "batch_size"):
                if getattr(res, name) != getattr(base, name):
                    report.mismatches.append(Mismatch(
                        f"{where} request {res.request.request_id}",
                        name,
                        getattr(base, name),
                        getattr(res, name),
                    ))
    return baseline


def _int_at_least(text: str, low: int) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < low:
        raise argparse.ArgumentTypeError(f"must be >= {low}, got {value}")
    return value


def positive_int(text: str) -> int:
    """argparse type: strictly positive integer."""
    return _int_at_least(text, 1)


def non_negative_int(text: str) -> int:
    """argparse type: integer >= 0."""
    return _int_at_least(text, 0)


Option = Tuple[Tuple[str, ...], Dict[str, Any]]


def option(*flags: str, **kwargs: Any) -> Option:
    """One ``parser.add_argument(*flags, **kwargs)`` call, deferred."""
    return flags, kwargs


@dataclass(frozen=True)
class Battery:
    """One registry entry of ``python -m repro.verify``.

    ``--<name>`` selects the battery (``--all`` selects every one) unless
    ``always`` is set, in which case it runs on every invocation.
    ``options`` are the battery's own command-line options;
    ``run(args, validator)`` returns its case reports.
    """

    name: str
    help: str
    run: Callable[[argparse.Namespace, ScheduleValidator], List[CaseReport]]
    options: Tuple[Option, ...] = ()
    always: bool = False


def machine(args: argparse.Namespace) -> PimConfig:
    """The machine the command line asked for."""
    return PimConfig(num_pes=args.pes, iterations=args.iterations)


def benchmark_names(args: argparse.Namespace) -> List[str]:
    """``--benchmarks``, or the 12 paper benchmarks."""
    return list(args.benchmarks or BENCHMARK_SIZES)
