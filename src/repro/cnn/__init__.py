"""CNN application model (paper Section 2.2) and workload registry.

A CNN is a stack of convolutional, pooling and fully-connected layers;
convolutions dominate (about 90% of operations). This package provides a
small layer algebra with shape/work inference, a GoogLeNet (Inception v1)
builder -- the network the paper's benchmarks derive from -- and the
partitioner that lowers a network into the periodic task-graph form that
Para-CONV schedules.
"""

from repro._lazy import lazy_exports

#: module -> the names this package exports from it, each imported on first
#: access (PEP 562), so ``import repro.cnn.workloads`` loads no layer,
#: network or partitioner module until a CNN-derived workload is built.
_EXPORTS = {
    "repro.cnn.layers": (
        "AvgPool2D", "Concat", "Conv2D", "Flatten", "FullyConnected",
        "InputLayer", "Layer", "LayerError", "LocalResponseNorm",
        "MaxPool2D", "TensorShape",
    ),
    "repro.cnn.network": ("Network", "NetworkError"),
    "repro.cnn.googlenet": ("build_googlenet", "inception_module"),
    "repro.cnn.partition": (
        "FusionSpec", "PartitionConfig", "partition_network",
    ),
    "repro.cnn.workloads": ("WORKLOADS", "load_workload"),
}

__getattr__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
