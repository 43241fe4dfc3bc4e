"""The retired search allocators' names in parametrized allocator suites.

``anneal`` (a DP-seeded annealing walk) and ``portfolio`` (the best of
several allocators) matched the DP's profit on every instance they were
checked on and were deleted; the registry must not hold them in any
process. Allocator suites keep a case under each retired name: the case
asserts the name is unregistered, then runs its check on the DP, the
allocator that took over their job.
"""

from __future__ import annotations

from repro.core.allocation import ALLOCATORS

RETIRED_ALLOCATORS = ("anneal", "portfolio")


def allocator_for(name: str):
    """``ALLOCATORS[name]``, or the DP for a retired name."""
    if name in RETIRED_ALLOCATORS:
        assert name not in ALLOCATORS, f"retired {name!r} is registered"
        return ALLOCATORS["dp"]
    return ALLOCATORS[name]
