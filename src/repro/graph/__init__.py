"""Periodic task-graph application model (paper Section 2.2).

A CNN application is modelled as a weighted directed acyclic graph
``G = (V, E, P, R)`` executed periodically:

* vertices are convolution / pooling operations (:class:`Operation`),
* edges carry intermediate processing results (:class:`IntermediateResult`),
* ``P`` associates each intermediate result with placement profits
  (on-chip cache vs. stacked eDRAM),
* ``R`` is the retiming function computed by :mod:`repro.core.retiming`.
"""

from repro._lazy import lazy_exports

#: module -> the names this package exports from it, each imported on first
#: access (PEP 562), so ``import repro.graph.taskgraph`` loads no generator,
#: serializer or randwired builder.
_EXPORTS = {
    "repro.graph.taskgraph": (
        "GraphValidationError", "IntermediateResult", "Operation",
        "OperationKind", "TaskGraph",
    ),
    "repro.graph.instances": (
        "IntermediateInstance", "OperationInstance", "unroll",
    ),
    "repro.graph.generators": (
        "SyntheticGraphGenerator", "generate_series_parallel",
        "synthetic_benchmark",
    ),
    "repro.graph.analysis": (
        "critical_path", "critical_path_length", "degree_histogram",
        "graph_statistics", "max_parallelism", "parallelism_profile",
    ),
    "repro.graph.io": (
        "graph_from_dict", "graph_from_json", "graph_to_dict",
        "graph_to_json",
    ),
    "repro.graph.randwired": (
        "RandwiredSpec", "barabasi_albert_dag", "erdos_renyi_dag",
        "randwired_benchmark", "randwired_graph", "watts_strogatz_dag",
    ),
    "repro.graph.transforms": ("coarsen_chains", "fuse_stages"),
}

__getattr__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
