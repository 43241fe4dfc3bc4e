"""Where an intermediate result lives: the PE cache or an eDRAM vault.

The allocator chooses a :class:`Placement` per intermediate result. What
that placement costs on a machine -- cache slots, transfer units, home
vault and vault service time -- is priced per edge by
:func:`repro.core.retiming.price_edges` from
:class:`repro.pim.config.PimConfig`.
"""

from __future__ import annotations

import enum


class Placement(enum.Enum):
    """Where an intermediate processing result lives."""

    CACHE = "cache"
    EDRAM = "edram"
