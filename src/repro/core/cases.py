"""The six-case classification of Figure 4.

For each intermediate result, the pair ``(delta_cache, delta_edram)`` of
required relative retiming values -- each in ``{0, 1, 2}`` with
``delta_cache <= delta_edram`` -- falls into exactly one of six cases:

====== ============= =============
case    delta_cache   delta_edram
====== ============= =============
1       0             0
2       0             1
3       0             2
4       1             1
5       1             2
6       2             2
====== ============= =============

Cases 1, 4 and 6 are *placement-indifferent* (``ΔR = 0``): caching them
cannot shorten the prologue, so they go to eDRAM to save cache space
(Section 3.2; Section 3.3.3's sentence sends them the other way, which
contradicts 3.2 -- we follow 3.2 and note the discrepancy in DESIGN.md).
Cases 2, 3 and 5 (``ΔR > 0``) compete for cache capacity in the dynamic
program.
"""

from __future__ import annotations

import enum
from collections import Counter
from typing import Dict, Mapping, Tuple

from repro.core.retiming import EdgeTiming, EdgeTimings, RetimingError


class RetimingCase(enum.IntEnum):
    """Figure 4 case identifiers."""

    CASE_1 = 1
    CASE_2 = 2
    CASE_3 = 3
    CASE_4 = 4
    CASE_5 = 5
    CASE_6 = 6

    @property
    def placement_sensitive(self) -> bool:
        """True for cases 2, 3, 5: eDRAM costs extra prologue iterations."""
        return self in (RetimingCase.CASE_2, RetimingCase.CASE_3, RetimingCase.CASE_5)

    @property
    def delta_r(self) -> int:
        """``ΔR`` earned by caching an edge of this case."""
        return _CASE_TO_DELTAS[self][1] - _CASE_TO_DELTAS[self][0]


_DELTAS_TO_CASE: Dict[Tuple[int, int], RetimingCase] = {
    (0, 0): RetimingCase.CASE_1,
    (0, 1): RetimingCase.CASE_2,
    (0, 2): RetimingCase.CASE_3,
    (1, 1): RetimingCase.CASE_4,
    (1, 2): RetimingCase.CASE_5,
    (2, 2): RetimingCase.CASE_6,
}

_CASE_TO_DELTAS: Dict[RetimingCase, Tuple[int, int]] = {
    case: deltas for deltas, case in _DELTAS_TO_CASE.items()
}


def classify(delta_cache: int, delta_edram: int) -> RetimingCase:
    """Map a ``(delta_cache, delta_edram)`` pair to its Figure 4 case."""
    try:
        return _DELTAS_TO_CASE[(delta_cache, delta_edram)]
    except KeyError:
        raise RetimingError(
            f"({delta_cache}, {delta_edram}) is not a feasible retiming "
            "pair: both must lie in {0,1,2} with delta_cache <= delta_edram"
        ) from None


def classify_timing(timing: EdgeTiming) -> RetimingCase:
    """Classify one analyzed edge."""
    return classify(timing.delta_cache, timing.delta_edram)


def classify_all(
    timings: Mapping[Tuple[int, int], EdgeTiming]
) -> Dict[Tuple[int, int], RetimingCase]:
    """Classify every analyzed edge."""
    return {key: classify_timing(t) for key, t in timings.items()}


def case_census(timings: EdgeTimings) -> Dict[RetimingCase, int]:
    """Histogram of cases over a graph's edges (all six keys present),
    read from the table's delta columns."""
    census = {case: 0 for case in RetimingCase}
    pairs = Counter(zip(timings.delta_cache, timings.delta_edram))
    for (delta_cache, delta_edram), count in pairs.items():
        census[classify(delta_cache, delta_edram)] += count
    return census
