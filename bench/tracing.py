"""Spans around the program's public entry points, recorded from outside.

:func:`traced` patches each entry point in :data:`TRACED_CALLS` with a
wrapper that opens a span on entry and closes it on return, then restores
the originals. Spans stay in memory; a layer's *self time* is its span's
duration minus what its child spans cover. Compile passes have no span of
their own: their seconds come from the ``compile_stats`` that
``ParaConv.run`` returns and are charged as children of the compile span.
Time outside every root span is the benchmark driver's own
(``bench.driver``), so self times plus the driver always add up to the
traced wall time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import json
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

#: ``(module[:class], attribute, layer)``: every call the traced run times.
#: ``load_workload`` is patched where each caller bound the name.
TRACED_CALLS = (
    ("repro.__main__", "load_workload", "cnn.load_workload"),
    ("repro.cnn.workloads", "load_workload", "cnn.load_workload"),
    ("repro.fleet.router", "load_workload", "cnn.load_workload"),
    ("repro.runtime.server", "load_workload", "cnn.load_workload"),
    ("repro.core.paraconv:ParaConv", "run", "compiler.run"),
    ("repro.runtime.plan_cache:PlanCache", "get_or_compile",
     "runtime.plan_cache.lookup"),
    ("repro.sim.executor:ScheduleExecutor", "execute", "sim.execute"),
    ("repro.runtime.session:InferenceSession", "run", "runtime.session.run"),
    ("repro.runtime.server:BatchingServer", "step", "runtime.server.step"),
    ("repro.fleet.worker:FleetWorker", "shed_expired", "fleet.shed"),
    ("repro.fleet.router:FleetRouter", "submit", "fleet.submit"),
    ("repro.fleet.router:FleetRouter", "pump", "fleet.pump"),
    ("repro.fleet.router:FleetRouter", "drain", "fleet.drain"),
)

#: the unattributed remainder of the traced wall time.
DRIVER_LAYER = "bench.driver"


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    #: index of the enclosing span in :attr:`Tracer.spans`; -1 for a root.
    parent: int = -1
    #: seconds of this span covered by children (real or compile passes).
    child_seconds: float = 0.0
    args: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer:
    """In-memory span tree plus counters, for one traced pass."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counters: Dict[str, float] = {}
        #: self seconds and calls of layers that have no span of their own.
        self.synthetic: Dict[str, float] = {}
        self.synthetic_calls: Dict[str, int] = {}
        self._stack: List[int] = []

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, time.perf_counter(), parent=parent))
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        span = self.spans[index]
        span.end = time.perf_counter()
        self._stack.pop()
        if span.parent >= 0:
            self.spans[span.parent].child_seconds += span.seconds

    def charge(self, index: int, layer: str, seconds: float, calls: int) -> None:
        """Move ``seconds`` of span ``index``'s self time to ``layer``."""
        self.spans[index].child_seconds += seconds
        self.synthetic[layer] = self.synthetic.get(layer, 0.0) + seconds
        self.synthetic_calls[layer] = self.synthetic_calls.get(layer, 0) + calls

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # -- aggregation ----------------------------------------------------
    def self_seconds(self) -> Dict[str, float]:
        """Self seconds per layer, compile passes included."""
        totals: Dict[str, float] = dict(self.synthetic)
        for span in self.spans:
            totals[span.name] = (
                totals.get(span.name, 0.0) + span.seconds - span.child_seconds
            )
        return totals

    def calls(self) -> Dict[str, int]:
        out: Dict[str, int] = dict(self.synthetic_calls)
        for span in self.spans:
            out[span.name] = out.get(span.name, 0) + 1
        return out

    def root_seconds(self) -> float:
        return sum(s.seconds for s in self.spans if s.parent < 0)

    def chrome_trace(self) -> Dict[str, Any]:
        """Chrome trace-event JSON (complete events, one thread)."""
        origin = self.spans[0].start if self.spans else 0.0
        events = [
            {
                "name": span.name,
                "cat": span.name.split(".")[0],
                "ph": "X",
                "ts": (span.start - origin) * 1e6,
                "dur": span.seconds * 1e6,
                "pid": 1,
                "tid": 1,
                "args": span.args,
            }
            for span in self.spans
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}


def _resolve(target: str):
    module_name, _, class_name = target.partition(":")
    owner = importlib.import_module(module_name)
    return getattr(owner, class_name) if class_name else owner


def _after_compile(tracer: Tracer, index: int, args: tuple, result: Any) -> None:
    stats = result.compile_stats
    if stats is None:
        return
    for name, seconds in stats.pass_seconds.items():
        tracer.charge(
            index, f"compiler.pass.{name}", seconds, stats.pass_runs[name]
        )
    tracer.count("compiler.widths_explored", stats.num_explored)
    tracer.count("compiler.widths_pruned", stats.num_pruned)
    tracer.spans[index].args["best_width"] = stats.best_width


def _after_execute(tracer: Tracer, index: int, args: tuple, trace: Any) -> None:
    tracer.count("sim.events", trace.events_processed)
    tracer.count("sim.rounds_simulated", trace.rounds_simulated)
    tracer.count("sim.rounds_fast_forwarded", trace.rounds_fast_forwarded)
    tracer.count("sim.converged", int(trace.converged_round is not None))
    tracer.count("sim.cache_spills", trace.cache_spills)
    tracer.count("sim.realized_units", trace.realized_makespan)
    tracer.spans[index].args["iterations"] = trace.iterations


def _after_submit(tracer: Tracer, index: int, args: tuple, result: Any) -> None:
    # The router numbers admissions 1, 2, ...: the counter's value after a
    # successful submit is the request's fleet id.
    router = args[0]
    tracer.spans[index].args["fleet_id"] = router.metrics.counter(
        "fleet.requests_admitted"
    ).value


#: per-layer hooks reading counters off a wrapped call's arguments (the
#: first is ``self``) and return value.
_AFTER: Dict[str, Callable[[Tracer, int, tuple, Any], None]] = {
    "compiler.run": _after_compile,
    "sim.execute": _after_execute,
    "fleet.submit": _after_submit,
}


def _wrap(tracer: Tracer, layer: str, original: Callable) -> Callable:
    after = _AFTER.get(layer)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        index = tracer.open(layer)
        try:
            result = original(*args, **kwargs)
        finally:
            tracer.close(index)
        if after is not None:
            after(tracer, index, args, result)
        return result

    return wrapper


@contextlib.contextmanager
def traced(tracer: Optional[Tracer]) -> Iterator[None]:
    """Install the span wrappers for the duration of the block.

    ``None`` installs nothing, so untraced and traced passes share one
    code path.
    """
    if tracer is None:
        yield
        return
    saved = []
    try:
        for target, attribute, layer in TRACED_CALLS:
            owner = _resolve(target)
            original = getattr(owner, attribute)
            saved.append((owner, attribute, original))
            setattr(owner, attribute, _wrap(tracer, layer, original))
        yield
    finally:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    with open(path, "w") as handle:
        json.dump(tracer.chrome_trace(), handle)
