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

from repro._lazy import lazy_exports

#: module -> the names this package exports from it, each imported on first
#: access (PEP 562), so a compile loads no fault, tenancy, energy or preset
#: module.
_EXPORTS = {
    "repro.pim.config": ("ConfigurationError", "PimConfig", "assert_disjoint"),
    "repro.pim.tenancy": ("TenantPlacement", "TenantSpec"),
    "repro.pim.faults": ("FaultEvent", "FaultModel", "FaultModelError"),
    "repro.pim.memory": ("Placement",),
    "repro.pim.energy": ("EnergyModel", "EnergyReport"),
    "repro.pim.presets": ("ARCHITECTURES", "architecture"),
    "repro.pim.stats": ("TrafficStats",),
}

__getattr__ = lazy_exports(__name__, globals(), _EXPORTS)

__all__ = sorted(name for names in _EXPORTS.values() for name in names)
