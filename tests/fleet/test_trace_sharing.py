"""Batch traces are shared across every cache one plan store opens.

A batch's trace is a function of ``(plan digest, active machine, sim
mode, active fault model, N)``. Sessions on caches opened from one
:class:`SharedPlanStore` therefore share one trace table: a shard that
inherits another shard's workload serves a batch size the fleet already
simulated without simulating it again. These tests spy on
``ScheduleExecutor.execute`` to count simulations and hold every batch to
a cold, cacheless session.
"""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.fleet.store import SharedPlanStore
from repro.pim.config import PimConfig
from repro.pim.faults import FAULT_UNIT_PE, FaultModel
from repro.runtime.plan_cache import plan_key_for
from repro.runtime.session import InferenceSession
from repro.sim.executor import ScheduleExecutor
from repro.sim.modes import SimMode
from tests.fleet.conftest import build_fleet, loader
from tests.runtime.test_batch_reuse import aggregates

N = 16


@pytest.fixture()
def executed(monkeypatch):
    """``(graph name, iterations)`` of every simulator call."""
    calls = []
    real = ScheduleExecutor.execute

    def spy(self, plan, *args, **kwargs):
        calls.append((plan.graph.name, kwargs["iterations"]))
        return real(self, plan, *args, **kwargs)

    monkeypatch.setattr(ScheduleExecutor, "execute", spy)
    return calls


def cold_batch(session, iterations, fault_model=None):
    """``run(iterations)`` on a cacheless session like ``session``."""
    cold = InferenceSession(
        session.graph,
        session.active_config,
        sim_mode=session.sim_mode,
        fault_model=fault_model,
    )
    return cold.run(iterations)


class TestCrossShardReuse:
    def test_survivor_reuses_the_dead_shards_trace(self, store, executed):
        router = build_fleet(store)
        victim = router.worker_for("cat")
        router.submit("cat", iterations=N)
        (first,) = router.drain()
        assert first.worker_id == victim.worker_id

        router.kill_worker(victim.worker_id)
        survivor = router.worker_for("cat")
        assert survivor is not victim
        assert survivor.server.config == victim.server.config
        router.submit("cat", iterations=N)
        (second,) = router.drain()

        assert second.worker_id == survivor.worker_id
        assert executed.count(("cat", N)) == 1
        counters = survivor.server.metrics.snapshot()["counters"]
        assert counters["batches_executed"] == 1
        assert counters["sim_batches_reused"] == 1
        session = survivor.server.sessions()["cat"]
        assert aggregates(second.result.batch) == aggregates(
            cold_batch(session, N)
        )

    def test_fleets_without_a_store_simulate_per_shard(self, executed):
        router = build_fleet(None)
        victim = router.worker_for("cat").worker_id
        router.submit("cat", iterations=N)
        router.drain()
        router.kill_worker(victim)
        router.submit("cat", iterations=N)
        router.drain()
        assert executed.count(("cat", N)) == 2

    def test_a_new_store_handle_starts_empty(self, tmp_path, executed):
        config = PimConfig(num_pes=16)
        for _ in range(2):
            cache = SharedPlanStore(tmp_path / "store").open_cache()
            InferenceSession(loader("cat"), config, cache=cache).run(N)
        assert executed == [("cat", N), ("cat", N)]


class TestKeySeparation:
    """Sessions on two caches of one store that differ in one key part."""

    GRAPH = "cat"
    BASE = PimConfig(num_pes=16, num_vaults=8)

    PAIRS = {
        "num_vaults": (
            {"config": BASE},
            {"config": replace(BASE, num_vaults=16)},
        ),
        "sim_mode": (
            {"sim_mode": SimMode.FULL_UNROLL},
            {"sim_mode": SimMode.STEADY_STATE},
        ),
        "fault_model": (
            {},
            {"fault_model": FaultModel.single(FAULT_UNIT_PE, 0, 10 * N)},
        ),
    }

    def session(self, cache, overrides):
        kwargs = {"config": self.BASE, **overrides}
        return InferenceSession(loader(self.GRAPH), cache=cache, **kwargs)

    @pytest.mark.parametrize("part", sorted(PAIRS))
    def test_each_session_simulates(self, store, executed, part):
        caches = (store.open_cache(), store.open_cache())
        sessions = [
            self.session(cache, overrides)
            for cache, overrides in zip(caches, self.PAIRS[part])
        ]
        results = [session.run(N) for session in sessions]
        assert executed == [(self.GRAPH, N)] * 2
        for session, result, overrides in zip(
            sessions, results, self.PAIRS[part]
        ):
            assert session.batches_reused == 0
            assert result.failovers == 0
            cold = cold_batch(session, N, overrides.get("fault_model"))
            assert aggregates(result) == aggregates(cold)

    def test_vault_counts_share_a_plan_digest(self):
        graph = loader(self.GRAPH)
        config_8, config_16 = (
            overrides["config"] for overrides in self.PAIRS["num_vaults"]
        )
        assert (
            plan_key_for(graph, config_8).digest
            == plan_key_for(graph, config_16).digest
        )

    def test_equal_keys_share_one_simulation(self, store, executed):
        first, second = (
            self.session(store.open_cache(), {}) for _ in range(2)
        )
        results = [first.run(N), second.run(N)]
        assert executed == [(self.GRAPH, N)]
        assert (first.batches_reused, second.batches_reused) == (0, 1)
        assert aggregates(results[0]) == aggregates(results[1])
