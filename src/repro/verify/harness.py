"""The one shape every verification battery shares.

A battery holds one part of the system to a reference and reports a list
of :class:`CaseReport`, one per case: what the case observed (``facts``),
each disagreement with its reference (a :class:`Mismatch`) and each
broken invariant (a failure string). The helpers the batteries share:

* :func:`run_case` opens a case and records an unexpected exception as
  its ``error`` (a battery reports, it never crashes);
* :func:`expectation_failures` is the one verdict: facts held to the
  values a case expects;
* :func:`diff_signatures` and :func:`hold_to_cold_compile` compare a
  served trace with a cold compile run on the full-unroll engine;
* :func:`replay_batches` replays served batches on a standalone
  :class:`~repro.runtime.server.BatchingServer`;
* :class:`Battery` is one entry of :data:`repro.verify.runner.BATTERIES`.
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


def expectation_failures(
    expect: Mapping[str, object], facts: Mapping[str, object]
) -> List[str]:
    """The verdict: every expected fact the case's facts do not hold."""
    return [
        f"{name}={facts.get(name)!r} (want {want!r})"
        for name, want in expect.items()
        if facts.get(name) != want
    ]


@contextmanager
def run_case(
    battery: str, case: str, expect: Optional[Mapping[str, object]] = None
) -> Iterator[CaseReport]:
    """Open one case; on a clean exit, hold its facts to ``expect``.

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
        report.failures.extend(expectation_failures(expect or {}, report.facts))


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
    location: str = "",
    references: Optional[Dict[tuple, tuple]] = None,
) -> Mapping[str, object]:
    """Hold a served trace's signature to a cold compile of ``graph``.

    The cold plan is compiled from scratch on ``config`` and executed on
    the full-unroll engine; every signature field must match exactly, and
    the cold plan must pass the full validator. ``references`` keeps the
    cold runs by graph, machine, batch size and allocator, so a second
    hold to the same reference compiles nothing. Returns the reference
    signature.
    """
    references = {} if references is None else references
    key = (graph.fingerprint(), config, iterations, allocator)
    if key not in references:
        plan = ParaConv(config, allocator_name=allocator).run(graph)
        references[key] = (
            full_unroll_signature(plan, config, iterations),
            [str(violation) for violation in validator.validate(plan).errors()],
        )
    reference, errors = references[key]
    report.mismatches.extend(diff_signatures(reference, candidate, location))
    report.failures.extend(f"{location} cold plan: {e}".lstrip() for e in errors)
    return reference


def replay_batches(
    report: CaseReport,
    location: str,
    results: Sequence[RequestResult],
    baseline: BatchingServer,
) -> List[RequestResult]:
    """Replay served batches on ``baseline``, a standalone server.

    Batch composition is taken as given (grouped by ``batch_id``); each
    batch is re-submitted to the idle baseline and executed as one batch.
    Same composition in, same per-request ``sim_latency`` and batch size
    out -- or the tier under test changed *what* was computed, not just
    when. Counts ``replayed_batches`` in the report's facts and returns
    the baseline's results.
    """
    batches: Dict[int, List[RequestResult]] = {}
    for res in results:
        batches.setdefault(res.batch_id, []).append(res)
    replays: List[RequestResult] = []
    for batch_id in sorted(batches):
        served = batches[batch_id]
        for res in served:
            baseline.submit(res.request.workload, iterations=res.request.iterations)
        replay = baseline.step()
        replays.extend(replay)
        report.facts["replayed_batches"] = (
            int(report.facts.get("replayed_batches", 0)) + 1
        )
        where = f"{location} batch {batch_id}"
        if len(replay) != len(served):  # pragma: no cover - defensive
            report.mismatches.append(
                Mismatch(where, "batch_size", len(replay), len(served))
            )
            continue
        report.mismatches.extend(
            Mismatch(f"{where} request {res.request.request_id}", name,
                     getattr(base, name), getattr(res, name))
            for res, base in zip(served, replay)
            for name in ("sim_latency", "batch_size")
            if getattr(res, name) != getattr(base, name)
        )
    return replays


def positive_int(text: str) -> int:
    """argparse type: strictly positive integer."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


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
