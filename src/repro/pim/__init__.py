"""Neurocube-style 3D processing-in-memory machine model (paper Section 2.1).

The architecture integrates DRAM/eDRAM arrays with an array of processing
engines (PEs) in a 3D stack. Each PE has a pFIFO, an ALU datapath, a
register file and a data cache for intermediate CNN results; iFIFO/oFIFO
carry inter-PE traffic; PEs reach DRAM vaults through TSVs via a crossbar.
Fetching from a DRAM vault costs 2-10x more time and energy than the on-chip
PE cache (Section 2.2), which is what makes intermediate-result placement
worth optimizing.

The machine is a set of parameters, not objects: :class:`PimConfig`
holds the PE and vault counts, cache capacity and transfer-cost ratios,
:func:`repro.core.retiming.price_edges` turns them into per-edge prices
(slots, transfer units, home vault, vault service time), and the
simulator (:mod:`repro.sim.executor`) advances PE, pFIFO, vault and
crossbar-port timelines from those prices.
"""

from repro.pim.config import PimConfig, ConfigurationError, assert_disjoint
from repro.pim.tenancy import TenantPlacement, TenantSpec
from repro.pim.faults import FaultEvent, FaultModel, FaultModelError
from repro.pim.memory import Placement
from repro.pim.energy import EnergyModel, EnergyReport
from repro.pim.presets import ARCHITECTURES, architecture
from repro.pim.stats import TrafficStats

__all__ = [
    "ARCHITECTURES",
    "ConfigurationError",
    "EnergyModel",
    "EnergyReport",
    "FaultEvent",
    "FaultModel",
    "FaultModelError",
    "PimConfig",
    "Placement",
    "TenantPlacement",
    "TenantSpec",
    "TrafficStats",
    "architecture",
    "assert_disjoint",
]
