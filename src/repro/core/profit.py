"""Columnar ΔR profit tables for the Section 3.3 allocation problem.

The object model (:class:`repro.core.allocation.AllocationItem`) is the
right shape for building, validating and explaining an allocation
instance, but the hot consumers -- the annealing walk's candidate
scoring, the brute-force oracle's subset enumeration and the result
finalization -- only ever need three per-item columns: the space
requirement ``sp_m``, the profit ``ΔR(m)`` and the deadline-ordered key.
:class:`ProfitTable` extracts those columns **once per problem** into
dense numpy arrays (plus plain-``int`` list mirrors for scalar hot loops,
where Python lists beat numpy item access), so a candidate subset is
scored with a dot product instead of a re-walk of the object graph.

Every value the table hands back is a plain Python ``int`` (or a
list/array thereof), never a numpy scalar, so results and
:class:`~repro.core.search.SearchStats` built through the table
serialize exactly; ``tests/golden/anneal.json`` pins the annealing
walk's answers.
"""

from __future__ import annotations

import re
from typing import TYPE_CHECKING, List, Sequence, Tuple

#: Minimum numpy release the columnar code paths are tested against.
#: (``numpy >= 1.22`` is the floor pinned in ``pyproject.toml``: it is
#: the first release with stable typed ``np.int64`` matmul promotion on
#: every platform the CI matrix covers.)
NUMPY_FLOOR = (1, 22)


def require_numpy_floor(module_name: str):
    """Import numpy and assert the columnar floor with a clear error.

    Called at import time by every columnar module so a too-old numpy
    fails loudly at the module boundary instead of deep inside an
    array expression with a confusing ``TypeError``.
    """
    try:
        import numpy as np
    except ImportError as exc:  # pragma: no cover - environment guard
        raise ImportError(
            f"{module_name} requires numpy >= "
            f"{'.'.join(map(str, NUMPY_FLOOR))}; numpy is not installed"
        ) from exc
    match = re.match(r"(\d+)\.(\d+)", np.__version__)
    if match and tuple(map(int, match.groups())) < NUMPY_FLOOR:
        raise ImportError(
            f"{module_name} requires numpy >= "
            f"{'.'.join(map(str, NUMPY_FLOOR))} (the simulator and the "
            f"allocators store their state in numpy arrays), found "
            f"{np.__version__}; upgrade numpy"
        )
    return np


np = require_numpy_floor(__name__)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.allocation import (
        AllocationProblem,
        AllocationResult,
    )

EdgeKey = Tuple[int, int]


class ProfitTable:
    """Per-item size/profit/feasibility columns of one allocation instance.

    Built once per :class:`~repro.core.allocation.AllocationProblem`
    (and cached on it -- see :meth:`of`), then shared by every columnar
    consumer: the annealing walk, the vectorized brute-force oracle and
    the finalization helper.

    Attributes:
        keys: item edge keys, in the problem's deadline order.
        slots: ``int64`` array of space requirements ``sp_m``.
        delta_r: ``int64`` array of profits ``ΔR(m)``.
        slots_list / delta_list: plain-``int`` mirrors of the arrays for
            scalar hot loops (numpy item access costs more than a list
            index; vector ops cost far less than a Python loop -- the
            table keeps both so each call site uses the cheaper form).
    """

    __slots__ = (
        "keys", "slots", "delta_r", "slots_list", "delta_list", "_index_of",
    )

    def __init__(self, items: Sequence) -> None:
        self.keys: List[EdgeKey] = [item.key for item in items]
        self.slots_list: List[int] = [item.slots for item in items]
        self.delta_list: List[int] = [item.delta_r for item in items]
        self.slots = np.asarray(self.slots_list, dtype=np.int64)
        self.delta_r = np.asarray(self.delta_list, dtype=np.int64)
        self._index_of = {key: i for i, key in enumerate(self.keys)}

    @classmethod
    def of(cls, problem: "AllocationProblem") -> "ProfitTable":
        """The problem's cached table (built on first use).

        The cache keys on object identity; callers that mutate
        ``problem.items`` in place must delete ``problem._profit_table``
        (every supported path builds problems immutably).
        """
        table = getattr(problem, "_profit_table", None)
        if table is None or table.num_items != len(problem.items):
            table = cls(problem.items)
            problem._profit_table = table
        return table

    @property
    def num_items(self) -> int:
        return len(self.keys)

    def member_mask(self, keys: Sequence[EdgeKey]):
        """Boolean membership column for a key collection."""
        mask = np.zeros(self.num_items, dtype=bool)
        for key in keys:
            index = self._index_of.get(key)
            if index is not None:
                mask[index] = True
        return mask

    def movable_indices(self, capacity_slots: int) -> List[int]:
        """Ascending indices of items that could ever fit the capacity."""
        return np.flatnonzero(self.slots <= capacity_slots).tolist()

    # ------------------------------------------------------------------
    # candidate scoring
    # ------------------------------------------------------------------
    def score_mask(self, mask) -> Tuple[int, int]:
        """``(profit, slots)`` of one boolean candidate, as plain ints."""
        return (
            int(self.delta_r[mask].sum()),
            int(self.slots[mask].sum()),
        )

    def score_masks(self, masks):
        """Batch-score candidates: ``(profits, slots)`` ``int64`` arrays.

        ``masks`` is a ``(k, n)`` boolean (or 0/1) matrix -- one row per
        candidate subset. Scoring is two matrix-vector products; this is
        the columnar replacement for re-walking the item objects once
        per candidate.
        """
        matrix = np.asarray(masks)
        if matrix.ndim != 2 or matrix.shape[1] != self.num_items:
            raise ValueError(
                f"masks must be (k, {self.num_items}), got {matrix.shape}"
            )
        weights = matrix.astype(np.int64, copy=False)
        return weights @ self.delta_r, weights @ self.slots

    def feasible(self, masks, capacity_slots: int):
        """Boolean feasibility column for a batch of candidates."""
        _, slots = self.score_masks(masks)
        return slots <= capacity_slots

    # ------------------------------------------------------------------
    # finalization
    # ------------------------------------------------------------------
    def result_from_mask(
        self, method: str, problem: "AllocationProblem", mask
    ) -> "AllocationResult":
        """Build an :class:`AllocationResult` from a boolean member mask.

        Field-identical to :func:`repro.core.allocation._finalize` on the
        equivalent chosen-item sequence: ``cached`` lists keys in item
        (deadline) order and profit/slots are plain ints summed by the
        table.
        """
        from repro.core.allocation import AllocationResult
        from repro.pim.memory import Placement

        chosen = np.asarray(mask, dtype=bool)
        if chosen.shape != (self.num_items,):
            raise ValueError(
                f"mask must have shape ({self.num_items},), "
                f"got {chosen.shape}"
            )
        placements = {key: Placement.EDRAM for key in problem.indifferent}
        cached: List[EdgeKey] = []
        for index, key in enumerate(self.keys):
            if chosen[index]:
                placements[key] = Placement.CACHE
                cached.append(key)
            else:
                placements[key] = Placement.EDRAM
        profit, slots = self.score_mask(chosen)
        return AllocationResult(
            method=method,
            placements=placements,
            cached=cached,
            total_delta_r=profit,
            slots_used=slots,
            capacity_slots=problem.capacity_slots,
        )

