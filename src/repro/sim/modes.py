"""Simulation modes for the schedule executor.

``FULL_UNROLL`` is the oracle: every instance of every iteration is
simulated event by event. ``STEADY_STATE`` exploits the periodicity the
paper proves (Sections 2.2/3.2): after the ``R_max * p`` prologue the
loop kernel repeats identically every period, so once two round-boundary
machine-state fingerprints match, the remaining rounds are fast-forwarded
in O(1) by replaying the converged per-round stats delta and splicing
timestamps. Both modes run on the one executor engine
(:mod:`repro.sim.executor`) and are aggregate-identical --
``repro.verify``'s ``differential_simulate`` check holds them to it.
"""

from __future__ import annotations

import enum


class SimMode(enum.Enum):
    """How the executor advances through the ``N`` logical iterations."""

    #: Simulate every instance (the oracle; O(V*N) events).
    FULL_UNROLL = "full"
    #: Detect steady state via machine fingerprints, fast-forward the rest.
    STEADY_STATE = "steady"

    @classmethod
    def from_name(cls, name: "str | SimMode") -> "SimMode":
        """Parse a CLI-style mode name (``full``/``steady``), leniently.

        ``columnar`` and ``columnar_steady`` are deprecated aliases of
        ``full`` and ``steady``: they named the array engine back when a
        second, object-based engine existed.
        """
        if isinstance(name, cls):
            return name
        normalized = str(name).strip().lower().replace("-", "_")
        aliases = {
            "full": cls.FULL_UNROLL,
            "full_unroll": cls.FULL_UNROLL,
            "steady": cls.STEADY_STATE,
            "steady_state": cls.STEADY_STATE,
            "columnar": cls.FULL_UNROLL,
            "columnar_steady": cls.STEADY_STATE,
        }
        try:
            return aliases[normalized]
        except KeyError:
            choices = ", ".join(mode.value for mode in cls)
            raise ValueError(
                f"unknown sim mode {name!r}; choose one of: {choices}"
            ) from None
