"""Consistent hashing for plan-affinity request routing.

The fleet routes every request by the fingerprint of the plan it needs,
so requests for the same plan always land on the same shard — the shard
whose warm :class:`~repro.runtime.plan_cache.PlanCache` already holds the
compiled schedule. A consistent-hash ring gives that affinity *and*
minimal disruption: when one of ``N`` shards dies, only ~``1/N`` of the
key space re-maps (to the dead shard's ring successors), so the
survivors' warm caches keep serving everything they already owned.

Hash points come from SHA-256, never from Python's builtin ``hash`` —
routing must be identical across processes and interpreter restarts
(``PYTHONHASHSEED`` randomizes ``hash(str)``), because a restarted router
that re-shuffled the key space would turn every warm cache cold.

The router routes every request, but on a handful of distinct keys (one
plan digest per workload), so :meth:`HashRing.route` memoizes
``key -> member``. Only membership changes move a key, so :meth:`add`
and :meth:`remove` clear the memo; :meth:`spread` samples through the
uncached lookup and leaves the memo as it found it.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Dict, List, Sequence, Tuple


class EmptyRingError(RuntimeError):
    """Routing was attempted against a ring with no members."""


def _hash_point(data: str) -> int:
    """Deterministic 64-bit ring position for one string."""
    digest = hashlib.sha256(data.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class HashRing:
    """A consistent-hash ring over named members.

    Args:
        members: initial member names (shard ids).
        replicas: virtual nodes per member. More replicas smooth the
            key-space split between members (the classic variance
            reduction); 64 keeps the remap fraction after one removal
            within a few points of the ideal ``1/N`` for small fleets.
    """

    def __init__(
        self, members: Sequence[str] = (), replicas: int = 64
    ):
        if replicas < 1:
            raise ValueError("replicas must be >= 1")
        self.replicas = replicas
        self._points: List[Tuple[int, str]] = []
        self._members: Dict[str, bool] = {}
        #: ``key -> member`` for the current membership (see :meth:`route`).
        self._routes: Dict[str, str] = {}
        for member in members:
            self.add(member)

    # -- membership ----------------------------------------------------
    def __len__(self) -> int:
        return len(self._members)

    def __contains__(self, member: str) -> bool:
        return member in self._members

    def members(self) -> List[str]:
        """Current member names, sorted."""
        return sorted(self._members)

    def add(self, member: str) -> None:
        """Add a member (idempotent is an error: duplicate names would
        silently double the member's key-space share)."""
        if member in self._members:
            raise ValueError(f"member {member!r} already on the ring")
        self._members[member] = True
        self._routes.clear()
        for replica in range(self.replicas):
            point = _hash_point(f"member:{member}#{replica}")
            bisect.insort(self._points, (point, member))

    def remove(self, member: str) -> None:
        """Remove a member; its key ranges fall to the ring successors."""
        if member not in self._members:
            raise ValueError(f"member {member!r} not on the ring")
        del self._members[member]
        self._routes.clear()
        self._points = [
            (point, name) for point, name in self._points if name != member
        ]

    # -- routing -------------------------------------------------------
    def route(self, key: str) -> str:
        """The member owning ``key``: first ring point at or after the
        key's hash, wrapping at the top of the space. Memoized until the
        membership next changes."""
        member = self._routes.get(key)
        if member is None:
            member = self._routes[key] = self._lookup(key)
        return member

    def _lookup(self, key: str) -> str:
        """:meth:`route` without the memo."""
        if not self._points:
            raise EmptyRingError("cannot route on an empty ring")
        point = _hash_point(f"key:{key}")
        index = bisect.bisect_left(self._points, (point, ""))
        if index == len(self._points):
            index = 0
        return self._points[index][1]

    def spread(self, keys: Sequence[str]) -> Dict[str, int]:
        """Keys-per-member census for a sample of keys (diagnostics)."""
        counts = {member: 0 for member in self._members}
        for key in keys:
            counts[self._lookup(key)] += 1
        return counts
