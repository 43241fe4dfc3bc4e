"""Sharded multi-worker serving tier over partitioned PIM machines.

The fleet lifts the single-machine serving stack (plan cache, inference
session, batching server) to N shards of one physical machine:

* :class:`HashRing` — consistent hashing on plan fingerprints, so every
  request lands on the shard whose cache is warm for its plan;
* :class:`SloClass` / :class:`SloPolicy` — typed per-class admission
  control and dispatch-deadline shedding;
* :class:`SharedPlanStore` — content-addressed disk artifact tier shared
  by every shard (compile once anywhere, warm everywhere), safe for
  concurrent writers;
* :class:`FleetWorker` — one shard or tenant: a machine partition, a
  batching server, a virtual-time horizon (:func:`shard_worker` builds
  a fleet shard);
* :class:`FleetRouter` — routing, admission, pump/drain, and fleet-level
  failover with zero lost requests on whole-worker death;
* :class:`TenantScheduler` — co-resident models, one worker per
  placement partition, served strictest SLO class first;
* :class:`FleetLoadGenerator` / :func:`run_bench` — deterministic
  trace-driven bench behind ``python -m repro.fleet bench``.
"""

from repro.fleet.hashing import EmptyRingError, HashRing
from repro.fleet.loadgen import (
    DEFAULT_SLO_MIX,
    FleetLoadGenerator,
    TraceRequest,
    run_bench,
)
from repro.fleet.router import (
    FleetConfigurationError,
    FleetRewireResult,
    FleetRouter,
)
from repro.fleet.slo import (
    DEFAULT_SLO_POLICIES,
    FleetAdmissionError,
    SloClass,
    SloPolicy,
)
from repro.fleet.store import SharedPlanStore, StoreStats
from repro.fleet.tenancy import TenancyError, TenantScheduler
from repro.fleet.worker import (
    FleetResult,
    FleetWorker,
    RequestMeta,
    WorkerDeadError,
    shard_worker,
)

__all__ = [
    "DEFAULT_SLO_MIX",
    "DEFAULT_SLO_POLICIES",
    "EmptyRingError",
    "FleetAdmissionError",
    "FleetConfigurationError",
    "FleetLoadGenerator",
    "FleetResult",
    "FleetRewireResult",
    "FleetRouter",
    "FleetWorker",
    "HashRing",
    "RequestMeta",
    "SharedPlanStore",
    "SloClass",
    "SloPolicy",
    "StoreStats",
    "TenancyError",
    "TenantScheduler",
    "TraceRequest",
    "WorkerDeadError",
    "run_bench",
    "shard_worker",
]
