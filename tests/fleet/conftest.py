"""Shared fixtures for the fleet tests.

Fleets are built over synthetic benchmark graphs via an injected
``graph_loader`` (the same idiom as the server tests), which keeps every
test milliseconds-fast while still exercising real compiles, real caches
and the real shared store.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import pytest

from repro.fleet.router import FleetRouter
from repro.fleet.store import SharedPlanStore
from repro.fleet.worker import FleetWorker, shard_worker
from repro.graph.generators import synthetic_benchmark
from repro.pim.config import PimConfig


def loader(name: str):
    return synthetic_benchmark(name)


def build_fleet(
    store: Optional[SharedPlanStore],
    num_workers: int = 4,
    num_pes: int = 64,
    num_vaults: int = 32,
    batch_window: int = 8,
    max_queue: int = 4096,
    policies=None,
) -> FleetRouter:
    """A router over equal shards of one machine, on synthetic graphs."""
    machine = PimConfig(num_pes=num_pes, num_vaults=num_vaults)
    shards = machine.split(num_workers, split_vaults=True)
    workers: List[FleetWorker] = [
        shard_worker(
            f"worker-{index}",
            shard,
            store=store,
            batch_window=batch_window,
            max_queue=max_queue,
            graph_loader=loader,
        )
        for index, shard in enumerate(shards)
    ]
    return FleetRouter(workers, policies=policies, graph_loader=loader)


def drive(
    router: FleetRouter,
    workloads: Sequence[str],
    count: int,
    pump_every: int = 8,
):
    """Submit ``count`` requests round-robin over ``workloads``, pumping
    periodically; returns every served FleetResult (queue fully drained).
    """
    results = []
    for index in range(count):
        router.advance_to(index)
        router.submit(workloads[index % len(workloads)])
        if (index + 1) % pump_every == 0:
            results.extend(router.pump())
    results.extend(router.drain())
    return results


@pytest.fixture()
def store(tmp_path) -> SharedPlanStore:
    return SharedPlanStore(tmp_path / "store")
