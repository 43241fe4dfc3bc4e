"""Architecture presets: the paper's future-work generality, made concrete.

Section 5 plans "a general model that can be adaptively applied to
different system architectures". Para-CONV's inputs are exactly the
parameters of :class:`repro.pim.config.PimConfig`, so adapting it to
another PIM organization is a matter of instantiating the model with that
architecture's ratios. The presets below are representative design points
drawn from the literature the paper cites:

* ``neurocube`` -- the paper's own evaluation platform [8]: HMC-style 3D
  stack, moderate eDRAM distance (4x), 4 KiB data cache per PE.
* ``eyeriss_like`` -- a spatial accelerator flavor [3]: generous on-chip
  storage per PE, relatively expensive off-chip path.
* ``rram_pim`` -- a PRIME-style resistive-memory design point [4]: compute
  sits *in* the memory arrays, so the "off-PE" path is cheap (2x) but the
  per-PE buffer is tiny.
* ``edge_pim`` -- a constrained embedded stack: slow (8x) vault path and a
  small cache.

Every preset is an ordinary :class:`PimConfig`; the comparison experiment
(:mod:`repro.eval.architectures`) runs the unchanged pipeline on each.
"""

from __future__ import annotations

from typing import Dict

from repro.pim.config import ConfigurationError, PimConfig

ARCHITECTURES: Dict[str, PimConfig] = {
    "neurocube": PimConfig(
        num_pes=16,
        cache_bytes_per_pe=4096,
        edram_latency_factor=4,
        edram_energy_factor=6,
    ),
    "eyeriss_like": PimConfig(
        num_pes=16,
        cache_bytes_per_pe=8192,
        edram_latency_factor=6,
        edram_energy_factor=10,
    ),
    "rram_pim": PimConfig(
        num_pes=16,
        cache_bytes_per_pe=1024,
        edram_latency_factor=2,
        edram_energy_factor=2,
    ),
    "edge_pim": PimConfig(
        num_pes=16,
        cache_bytes_per_pe=2048,
        edram_latency_factor=8,
        edram_energy_factor=8,
    ),
}


def architecture(name: str, num_pes: int = None) -> PimConfig:
    """Look up a preset, optionally overriding the PE count."""
    try:
        config = ARCHITECTURES[name]
    except KeyError:
        known = ", ".join(sorted(ARCHITECTURES))
        raise ConfigurationError(
            f"unknown architecture {name!r}; known: {known}"
        ) from None
    if num_pes is not None:
        config = config.with_pes(num_pes)
    return config
