"""Workload registry: every benchmark the evaluation runs.

The paper's twelve applications (Table 1) are regenerated as seeded
synthetic graphs with the published vertex/edge counts; the CNN-derived
entries additionally expose real GoogLeNet partitions for users who want
structure that comes from an actual network rather than a generator; and
the ``randwired-*`` entries are randomly-wired DAGs (ER/WS/BA families,
:mod:`repro.graph.randwired`) that stress the stack with irregular
high-fan-in dataflow the layered benchmarks never produce.
"""

from __future__ import annotations

from typing import Callable, Dict, List

from repro.graph.generators import BENCHMARK_SIZES, synthetic_benchmark
from repro.graph.taskgraph import GraphValidationError, TaskGraph

GraphBuilder = Callable[[], TaskGraph]


class UnknownWorkloadError(GraphValidationError):
    """A workload name matched nothing in the registry.

    Mirrors :class:`~repro.core.allocation.UnknownAllocatorError`: carries
    the offending ``name`` and the sorted registry ``choices`` so CLIs and
    error paths can enumerate what *would* have worked. Subclasses
    :class:`GraphValidationError` (itself a ``ValueError``) so existing
    guards keep catching it.
    """

    def __init__(self, name: str):
        self.name = name
        self.choices = sorted(WORKLOADS)
        super().__init__(
            f"unknown workload {name!r}; known workloads: "
            f"{', '.join(self.choices)}"
        )


#: The names of ``repro.cnn.models.MODEL_BUILDERS`` and
#: ``repro.graph.randwired.RANDWIRED_SPECS``, in their order. The builders
#: below import the network, partitioner and randwired modules on their
#: first call, so loading the registry (and ``python -m repro``) does not;
#: ``tests/integration/test_cold_imports.py`` holds these to the sources.
MODEL_NAMES = ("lenet5", "alexnet", "vgg16")
RANDWIRED_NAMES = (
    "randwired-er", "randwired-ws", "randwired-ba", "randwired-er-64",
    "randwired-ba-64",
)


def _googlenet_graph() -> TaskGraph:
    from repro.cnn.googlenet import build_googlenet
    from repro.cnn.partition import PartitionConfig, partition_network

    return partition_network(build_googlenet(), PartitionConfig())


def _googlenet_small_graph() -> TaskGraph:
    from repro.cnn.googlenet import googlenet_prefix
    from repro.cnn.partition import PartitionConfig, partition_network

    return partition_network(googlenet_prefix(3), PartitionConfig())


def _synthetic(name: str) -> GraphBuilder:
    def build() -> TaskGraph:
        return synthetic_benchmark(name)

    return build


def _model_graph(name: str) -> GraphBuilder:
    def build() -> TaskGraph:
        from repro.cnn.models import MODEL_BUILDERS
        from repro.cnn.partition import PartitionConfig, partition_network

        return partition_network(MODEL_BUILDERS[name](), PartitionConfig())

    return build


def _randwired(name: str) -> GraphBuilder:
    def build() -> TaskGraph:
        from repro.graph.randwired import randwired_benchmark

        return randwired_benchmark(name)

    return build


#: Every named workload; the first twelve are the paper's Table 1 rows.
WORKLOADS: Dict[str, GraphBuilder] = {
    **{name: _synthetic(name) for name in BENCHMARK_SIZES},
    "googlenet": _googlenet_graph,
    "googlenet-small": _googlenet_small_graph,
    **{name: _model_graph(name) for name in MODEL_NAMES},
    **{name: _randwired(name) for name in RANDWIRED_NAMES},
}

#: The paper's evaluation set, in Table 1 row order.
PAPER_BENCHMARKS: List[str] = list(BENCHMARK_SIZES)

#: The randomly-wired stress set, in registry order.
RANDWIRED_BENCHMARKS: List[str] = list(RANDWIRED_NAMES)


#: The graph each registry entry built, keyed by its builder: every
#: entry is built once per process and served as copies of this template.
_TEMPLATES: Dict[GraphBuilder, TaskGraph] = {}


def load_workload(name: str) -> TaskGraph:
    """A fresh task graph of the named workload (deterministic per name).

    Each registry entry is built once per process; every call returns a
    new copy of that template, sharing its frozen operations and edges
    and carrying its :meth:`~TaskGraph.index`, the
    :meth:`~TaskGraph.derived` facts kept with it, and its
    :meth:`~TaskGraph.fingerprint` (the content is equal), so every load
    of a name pays for these once. The copy is the caller's own:
    changing it resets its caches only and leaves the template, and
    every later load, as it was.

    Raises :class:`UnknownWorkloadError` — a typed
    :class:`GraphValidationError` enumerating the registry — when the
    name matches nothing.
    """
    try:
        builder = WORKLOADS[name]
    except KeyError:
        raise UnknownWorkloadError(name) from None
    template = _TEMPLATES.get(builder)
    if template is None:
        template = _TEMPLATES[builder] = builder()
    graph = template.copy()
    graph._index = template.index()
    graph._facts = template._facts
    graph._fingerprint = template.fingerprint()
    return graph
