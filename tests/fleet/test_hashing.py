"""Consistent-hash ring: determinism, balance, minimal remap."""

from __future__ import annotations

import os
import random
import subprocess
import sys

import pytest

from repro.fleet.hashing import EmptyRingError, HashRing


class TestMembership:
    def test_members_sorted(self):
        ring = HashRing(["b", "a", "c"])
        assert ring.members() == ["a", "b", "c"]
        assert len(ring) == 3
        assert "a" in ring and "z" not in ring

    def test_duplicate_add_rejected(self):
        ring = HashRing(["a"])
        with pytest.raises(ValueError, match="already"):
            ring.add("a")

    def test_remove_unknown_rejected(self):
        with pytest.raises(ValueError, match="not on the ring"):
            HashRing(["a"]).remove("b")

    def test_replicas_validated(self):
        with pytest.raises(ValueError):
            HashRing(replicas=0)

    def test_empty_ring_routes_nothing(self):
        with pytest.raises(EmptyRingError):
            HashRing().route("key")
        ring = HashRing(["only"])
        ring.remove("only")
        with pytest.raises(EmptyRingError):
            ring.route("key")


class TestRouting:
    def test_deterministic_per_key(self):
        ring = HashRing(["a", "b", "c"])
        for key in ("x", "y", "plan-123"):
            assert ring.route(key) == ring.route(key)

    def test_rebuilt_ring_routes_identically(self):
        keys = [f"key-{i}" for i in range(200)]
        first = [HashRing(["a", "b", "c"]).route(k) for k in keys]
        second = [HashRing(["a", "b", "c"]).route(k) for k in keys]
        assert first == second

    def test_insertion_order_irrelevant(self):
        keys = [f"key-{i}" for i in range(100)]
        forward = HashRing(["a", "b", "c"])
        backward = HashRing(["c", "b", "a"])
        assert [forward.route(k) for k in keys] == [
            backward.route(k) for k in keys
        ]

    def test_cross_process_determinism(self):
        """Routing must survive PYTHONHASHSEED changes — SHA-256, not
        builtin hash(), decides placement."""
        keys = [f"plan-{i}" for i in range(32)]
        local = [HashRing(["a", "b", "c"]).route(k) for k in keys]
        script = (
            "from repro.fleet.hashing import HashRing\n"
            "ring = HashRing(['a', 'b', 'c'])\n"
            f"print(','.join(ring.route(k) for k in {keys!r}))\n"
        )
        for hashseed in ("0", "12345"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (env.get("PYTHONPATH"), "src") if p
            )
            out = subprocess.run(
                [sys.executable, "-c", script],
                capture_output=True, text=True, env=env, check=True,
            )
            assert out.stdout.strip().split(",") == local

    def test_spread_counts_every_key(self):
        ring = HashRing(["a", "b"])
        keys = [f"k{i}" for i in range(50)]
        spread = ring.spread(keys)
        assert sum(spread.values()) == 50
        assert set(spread) == {"a", "b"}


class TestRemapProperty:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_removal_remaps_about_one_nth(self, seed):
        """Removing one of N members remaps ~1/N of the key space, and
        never moves a key between two surviving members."""
        rng = random.Random(seed)
        members = [f"worker-{i}" for i in range(8)]
        keys = [f"key-{rng.random()}" for _ in range(4000)]
        ring = HashRing(members)
        before = {k: ring.route(k) for k in keys}
        victim = members[seed % len(members)]
        ring.remove(victim)
        after = {k: ring.route(k) for k in keys}

        moved = [k for k in keys if before[k] != after[k]]
        # Every moved key must have been the victim's — survivors keep
        # everything they owned (this is the warm-cache guarantee).
        assert all(before[k] == victim for k in moved)
        assert all(after[k] != victim for k in keys)
        # The victim owned ~1/8 of the space; allow generous slack for
        # virtual-node variance.
        fraction = len(moved) / len(keys)
        assert 0.125 / 3 < fraction < 0.125 * 3

    def test_add_back_restores_routing(self):
        keys = [f"key-{i}" for i in range(500)]
        ring = HashRing(["a", "b", "c"])
        before = {k: ring.route(k) for k in keys}
        ring.remove("b")
        ring.add("b")
        assert {k: ring.route(k) for k in keys} == before


class TestRouteMemo:
    """``route`` memoizes ``key -> member``; membership changes clear it."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_memo_agrees_with_a_fresh_ring(self, seed):
        rng = random.Random(seed)
        pool = [f"worker-{i}" for i in range(6)]
        keys = [f"key-{i}" for i in range(1000)]
        ring = HashRing(pool[:3], replicas=16)
        for _ in range(12):
            # Route (filling the memo), then change membership at random.
            for key in rng.sample(keys, 100):
                ring.route(key)
            absent = [m for m in pool if m not in ring]
            if absent and (len(ring) <= 1 or rng.random() < 0.5):
                ring.add(rng.choice(absent))
            else:
                ring.remove(rng.choice(ring.members()))
            fresh = HashRing(ring.members(), replicas=16)
            assert [ring.route(k) for k in keys] == [
                fresh.route(k) for k in keys
            ]

    def test_spread_leaves_the_memo_empty(self):
        ring = HashRing(["a", "b", "c"])
        keys = [f"k{i}" for i in range(200)]
        assert sum(ring.spread(keys).values()) == len(keys)
        assert ring._routes == {}
        ring.route("k0")
        ring.spread(keys)
        assert set(ring._routes) == {"k0"}
