"""Para-CONV: parallelism for convolutional connections in PIM architecture.

This package reproduces the system described in "Exploiting Parallelism for
Convolutional Connections in Processing-In-Memory Architecture" (DAC 2017).
It provides:

* :mod:`repro.graph` -- the periodic task-graph application model,
* :mod:`repro.cnn` -- a CNN layer algebra and graph partitioner,
* :mod:`repro.pim` -- a Neurocube-style 3D PIM machine model,
* :mod:`repro.sim` -- a discrete-event simulator for periodic schedules,
* :mod:`repro.core` -- retiming, the dynamic-programming data allocator,
  schedulers, the Para-CONV pipeline and the SPARTA baseline,
* :mod:`repro.eval` -- the experiment harness regenerating every table and
  figure of the paper's evaluation section,
* :mod:`repro.runtime` -- the compile-once inference-serving runtime
  (plan cache, sessions, batching request scheduler, metrics).

Quickstart::

    from repro import ParaConv, PimConfig, synthetic_benchmark

    graph = synthetic_benchmark("flower")
    result = ParaConv(PimConfig(num_pes=32)).run(graph)
    print(result.summary())
"""

from repro._lazy import lazy_exports
from repro.graph.taskgraph import (
    IntermediateResult,
    Operation,
    OperationKind,
    TaskGraph,
)
from repro.graph.generators import synthetic_benchmark, SyntheticGraphGenerator
from repro.pim.config import PimConfig
from repro.core.paraconv import ParaConv, ParaConvResult
from repro.cnn.workloads import load_workload, WORKLOADS

__version__ = "1.1.0"

#: The SPARTA baseline and the serving-runtime exports, imported on first
#: access (PEP 562) so that a compile-only process such as ``python -m
#: repro`` loads neither.
__getattr__ = lazy_exports(__name__, globals(), {
    "repro.core.baseline": ("SpartaScheduler",),
    "repro.runtime.plan_cache": ("PlanCache",),
    "repro.runtime.server": ("BatchingServer", "QueueFullError"),
    "repro.runtime.session": ("InferenceSession",),
})

__all__ = [
    "BatchingServer",
    "InferenceSession",
    "IntermediateResult",
    "PlanCache",
    "QueueFullError",
    "Operation",
    "OperationKind",
    "ParaConv",
    "ParaConvResult",
    "PimConfig",
    "SpartaScheduler",
    "SyntheticGraphGenerator",
    "TaskGraph",
    "WORKLOADS",
    "load_workload",
    "synthetic_benchmark",
    "__version__",
]
