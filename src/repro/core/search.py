"""Anytime search-based allocation: simulated annealing + portfolio.

The paper's dynamic program (:func:`repro.core.allocation.dp_allocate`)
is profit-optimal for the clean knapsack model of Section 3.3. The
scenarios this repo now serves — degraded masks, fleet shard partitions,
liveness-reweighted instances — keep the *interface* of that model but
motivate a search-based escape hatch: an allocator that explores the
space of cache assignments under an explicit compile budget and is
*provably no worse than the DP where the DP is valid*.

:class:`AnnealAllocator` is that escape hatch:

* **DP-seeded** — the walk starts from the DP solution, so the answer can
  never regress below the paper's allocator (the anytime lower bound);
* **anytime** — the best feasible candidate seen so far is tracked and
  returned whenever the budget runs out, and the temperature schedule
  depends only on the evaluation index (never on the budget), so a run
  with budget ``b2 > b1`` replays the ``b1`` run exactly and then keeps
  going: quality is monotone in the budget by construction;
* **deterministic** — every move is drawn from a ``random.Random(seed)``
  stream over index-addressed (never hash-ordered) state, so the same
  (problem, seed, budget) triple produces the same answer in every
  process regardless of ``PYTHONHASHSEED``;
* **feasible throughout** — a candidate that would overflow the capacity
  is never accepted, so *every* intermediate state (not just the final
  answer) is a valid allocation;
* **budgeted in evaluations, not wall-clock** — ``max_evals`` counts
  scored neighborhood moves, so results are reproducible across machines.

Neighborhood moves flip one intermediate result in or out of the cache;
when an insertion does not fit, the move becomes a *swap* (evict one
random cached result to make room), which lets the walk cross capacity
ridges that pure flips cannot.

:class:`AllocatorPortfolio` races the DP against the search (and any
other member) on the same instance and keeps the best feasible answer —
the deployment shape: exact where exactness holds, search where it bends.

Both register in :data:`repro.core.allocation.ALLOCATORS` under
``anneal`` / ``portfolio`` with the default budget; another budget means
constructing an instance (``AnnealAllocator(max_evals=5000)``) and
passing it as the allocator.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.allocation import (
    ALLOCATORS,
    AllocationProblem,
    AllocationResult,
    _finalize,
    dp_allocate,
    greedy_allocate,
)
from repro.core.profit import ProfitTable, np

EdgeKey = Tuple[int, int]

#: Default evaluation budget for the annealing walk. Each evaluation is
#: O(1) (incremental profit/slot accounting), so the default compiles in
#: well under a millisecond on every paper benchmark.
DEFAULT_SEARCH_BUDGET = 2000

#: Evaluations between deterministic reheats. A fixed interval (never a
#: function of the budget) preserves the anytime prefix property.
REHEAT_INTERVAL = 500

#: Per-evaluation geometric cooling factor.
COOLING = 0.995

#: Registry of seed strategies for the walk's starting point.
SEEDERS: Dict[str, Callable[[AllocationProblem], AllocationResult]] = {
    "dp": dp_allocate,
    "greedy": greedy_allocate,
    "empty": lambda problem: _finalize("empty", problem, []),
}


@dataclass
class SearchStats:
    """Observability record of one search run (surfaced by ``--explain``).

    Attributes:
        method: allocator that produced the record (``anneal`` or
            ``portfolio``).
        seed: RNG seed of the walk.
        budget: the evaluation budget (``max_evals``).
        evals_used: evaluations actually spent (< budget on tiny
            instances where the walk is skipped).
        moves_accepted / moves_rejected: accepted vs rejected proposals.
        seed_profit: profit of the seeding solution the walk started from.
        seed_method: which seeder produced the starting point.
        best_profit: profit of the returned (best-so-far) candidate.
        best_eval: evaluation index at which the best candidate appeared
            (0 when the seed was never improved).
        trajectory: ``(eval_index, profit)`` at every strict improvement —
            the anytime curve; always starts at ``(0, seed_profit)``.
        winner: portfolio only — the member whose answer was returned.
    """

    method: str = "anneal"
    seed: int = 0
    budget: int = 0
    evals_used: int = 0
    moves_accepted: int = 0
    moves_rejected: int = 0
    seed_profit: int = 0
    seed_method: str = "dp"
    best_profit: int = 0
    best_eval: int = 0
    trajectory: List[Tuple[int, int]] = field(default_factory=list)
    winner: Optional[str] = None

    @property
    def improved_over_seed(self) -> bool:
        return self.best_profit > self.seed_profit

    def as_dict(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {
            "method": self.method,
            "seed": self.seed,
            "budget": self.budget,
            "evals_used": self.evals_used,
            "moves_accepted": self.moves_accepted,
            "moves_rejected": self.moves_rejected,
            "seed_profit": self.seed_profit,
            "seed_method": self.seed_method,
            "best_profit": self.best_profit,
            "best_eval": self.best_eval,
            "improved_over_seed": self.improved_over_seed,
            "trajectory": [list(point) for point in self.trajectory],
        }
        if self.winner is not None:
            payload["winner"] = self.winner
        return payload


class AnnealAllocator:
    """Seeded simulated-annealing allocator with anytime semantics.

    A plain ``problem -> AllocationResult`` callable (no graph coupling),
    so it slots into the registry, the differential oracle and the
    pipeline exactly like the DP. The returned result carries a
    :class:`SearchStats` record in ``result.search_stats``.

    Args:
        max_evals: evaluation budget; ``0`` returns the seed untouched.
        seed: RNG seed for the move stream.
        seed_from: seeding strategy (``dp`` — the anytime lower bound the
            acceptance tests pin — or ``greedy``/``empty`` for measuring
            how fast the walk climbs from a weak start).
        record_candidates: keep ``(profit, slots_used)`` of every
            *accepted* candidate in ``self.last_candidates`` (test hook
            for the feasibility-of-every-intermediate property).

    Candidates are scored on the problem's
    :class:`~repro.core.profit.ProfitTable` columns; the walk's answers
    are pinned by ``tests/golden/anneal.json``.
    """

    def __init__(
        self,
        max_evals: int = DEFAULT_SEARCH_BUDGET,
        seed: int = 0,
        seed_from: str = "dp",
        record_candidates: bool = False,
    ):
        if max_evals < 0:
            raise ValueError(f"max_evals must be >= 0, got {max_evals}")
        if seed_from not in SEEDERS:
            known = ", ".join(sorted(SEEDERS))
            raise ValueError(f"unknown seed_from {seed_from!r}; known: {known}")
        self.max_evals = max_evals
        self.seed = seed
        self.seed_from = seed_from
        self.record_candidates = record_candidates
        #: (profit, slots_used) of every accepted candidate of the last
        #: run, seed included (populated when ``record_candidates``).
        self.last_candidates: List[Tuple[int, int]] = []

    def __repr__(self) -> str:
        return (
            f"AnnealAllocator(max_evals={self.max_evals}, seed={self.seed}, "
            f"seed_from={self.seed_from!r})"
        )

    def __call__(self, problem: AllocationProblem) -> AllocationResult:
        problem.validate()
        seeded = SEEDERS[self.seed_from](problem)
        stats = SearchStats(
            method="anneal",
            seed=self.seed,
            budget=self.max_evals,
            seed_profit=seeded.total_delta_r,
            seed_method=self.seed_from,
        )
        table = ProfitTable.of(problem)
        capacity = problem.capacity_slots
        # Plain-int mirrors for the scalar per-move reads (list indexing
        # beats numpy item access); arrays for the batched scans below.
        slots_of = table.slots_list
        delta_of = table.delta_list
        in_cache = table.member_mask(seeded.cached)
        cur_profit = seeded.total_delta_r
        cur_slots = seeded.slots_used
        best = in_cache.copy()
        best_profit, best_slots = cur_profit, cur_slots
        stats.best_profit = best_profit
        stats.trajectory.append((0, best_profit))
        if self.record_candidates:
            self.last_candidates = [(cur_profit, cur_slots)]

        # Degenerate instances: nothing to move, or nothing ever fits.
        movable = table.movable_indices(capacity)
        if not movable or self.max_evals == 0:
            result = table.result_from_mask("anneal", problem, best)
            result.search_stats = stats
            return result

        rng = random.Random(self.seed)
        # Temperature scale: the largest single-item profit, so an initial
        # downhill move of typical size is accepted with probability ~1/e.
        t0 = float(max(delta_of) or 1)
        temperature = t0

        for eval_index in range(1, self.max_evals + 1):
            stats.evals_used = eval_index
            # Deterministic reheat keeps late evaluations exploratory
            # without making the schedule depend on the total budget.
            if eval_index % REHEAT_INTERVAL == 0:
                temperature = t0
            index = movable[rng.randrange(len(movable))]
            evicted: List[int] = []
            if in_cache[index]:
                delta_profit = -delta_of[index]
                delta_slots = -slots_of[index]
            else:
                delta_profit = delta_of[index]
                delta_slots = slots_of[index]
                if cur_slots + delta_slots > capacity:
                    # Swap move: evict random cached items (an ascending
                    # membership scan, then a seeded shuffle) until the
                    # new item fits.
                    cached_now = np.flatnonzero(in_cache).tolist()
                    rng.shuffle(cached_now)
                    freed = 0
                    item_slots = slots_of[index]
                    for victim in cached_now:
                        if cur_slots + item_slots - freed <= capacity:
                            break
                        evicted.append(victim)
                        freed += slots_of[victim]
                        delta_profit -= delta_of[victim]
                        delta_slots -= slots_of[victim]
                    if cur_slots + delta_slots > capacity:
                        # Even a full eviction cannot fit it (shared slots
                        # with indifferent charge): infeasible, reject.
                        stats.moves_rejected += 1
                        temperature *= COOLING
                        continue
            accept = delta_profit >= 0 or rng.random() < math.exp(
                delta_profit / max(temperature, 1e-9)
            )
            temperature *= COOLING
            if not accept:
                stats.moves_rejected += 1
                continue
            stats.moves_accepted += 1
            for victim in evicted:
                in_cache[victim] = False
            in_cache[index] = not in_cache[index]
            cur_profit += delta_profit
            cur_slots += delta_slots
            assert cur_slots <= capacity  # feasibility invariant
            if self.record_candidates:
                self.last_candidates.append((cur_profit, cur_slots))
            if cur_profit > best_profit or (
                cur_profit == best_profit and cur_slots < best_slots
            ):
                best = in_cache.copy()
                best_profit, best_slots = cur_profit, cur_slots
                if cur_profit > stats.best_profit:
                    stats.best_profit = cur_profit
                    stats.best_eval = eval_index
                    stats.trajectory.append((eval_index, cur_profit))

        result = table.result_from_mask("anneal", problem, best)
        result.search_stats = stats
        return result


class AllocatorPortfolio:
    """Race several allocators on one instance, keep the best feasible.

    The deployment shape of the search extension: the paper's DP answers
    exactly where its model holds, the annealer answers where it bends,
    and the portfolio never has to know which regime it is in — it scores
    every member's result by ``(profit, -slots)`` (capacity-infeasible
    answers are discarded) and returns the winner re-labeled
    ``portfolio``, with a :class:`SearchStats` record naming the winning
    member.

    Args:
        max_evals: budget handed to the annealing member.
        seed: RNG seed handed to the annealing member.
        members: optional override, ``(name, allocator)`` pairs raced in
            order; ties prefer earlier members. Default: DP then anneal.
    """

    def __init__(
        self,
        max_evals: int = DEFAULT_SEARCH_BUDGET,
        seed: int = 0,
        members: Optional[Sequence[Tuple[str, Callable]]] = None,
    ):
        if max_evals < 0:
            raise ValueError(f"max_evals must be >= 0, got {max_evals}")
        self.max_evals = max_evals
        self.seed = seed
        self.members: List[Tuple[str, Callable]] = (
            list(members)
            if members is not None
            else [
                ("dp", dp_allocate),
                ("anneal", AnnealAllocator(max_evals=max_evals, seed=seed)),
            ]
        )
        if not self.members:
            raise ValueError("portfolio needs at least one member")

    def __repr__(self) -> str:
        names = ", ".join(name for name, _ in self.members)
        return f"AllocatorPortfolio([{names}], max_evals={self.max_evals})"

    def __call__(self, problem: AllocationProblem) -> AllocationResult:
        problem.validate()
        winner_name: Optional[str] = None
        winner: Optional[AllocationResult] = None
        for name, member in self.members:
            candidate = member(problem)
            if candidate.slots_used > problem.capacity_slots:
                continue  # infeasible member answer: never forwarded
            if winner is None or (
                candidate.total_delta_r,
                -candidate.slots_used,
            ) > (winner.total_delta_r, -winner.slots_used):
                winner_name, winner = name, candidate
        if winner is None:
            raise RuntimeError(
                "every portfolio member returned an infeasible allocation"
            )
        by_key = {item.key: item for item in problem.items}
        result = _finalize(
            "portfolio",
            problem,
            [by_key[key] for key in winner.cached if key in by_key],
        )
        inner = getattr(winner, "search_stats", None)
        stats = SearchStats(
            method="portfolio",
            seed=self.seed,
            budget=self.max_evals,
            evals_used=inner.evals_used if inner is not None else 0,
            moves_accepted=inner.moves_accepted if inner is not None else 0,
            moves_rejected=inner.moves_rejected if inner is not None else 0,
            seed_profit=(
                inner.seed_profit
                if inner is not None
                else result.total_delta_r
            ),
            seed_method=inner.seed_method if inner is not None else "dp",
            best_profit=result.total_delta_r,
            best_eval=inner.best_eval if inner is not None else 0,
            trajectory=list(inner.trajectory) if inner is not None else [],
            winner=winner_name,
        )
        result.search_stats = stats
        return result


def register_search() -> None:
    """Expose the search allocators under their registry names.

    Registered as *instances* (plain callables), so the resolver and the
    differential oracle invoke them like any ``problem -> result``
    allocator, at :data:`DEFAULT_SEARCH_BUDGET`.
    """
    ALLOCATORS.setdefault("anneal", AnnealAllocator())
    ALLOCATORS.setdefault("portfolio", AllocatorPortfolio())


register_search()
