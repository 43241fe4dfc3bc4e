"""Multi-tenant spatial partitioning of one PIM machine.

ROADMAP item 4(b): several CNNs resident on one machine at once, each
owning a PE/vault partition via the PR 6 mask mechanism. This module is
the *placement* half of that story — pure configuration carving with no
serving-layer dependencies (the scheduler that serves tenants lives in
:mod:`repro.fleet.tenancy`, keeping ``repro.pim`` import-light).

A :class:`TenantPlacement` carves one :class:`~repro.pim.config.PimConfig`
into named :meth:`~repro.pim.config.PimConfig.partition` views and proves
them physically disjoint at construction time via
:func:`~repro.pim.config.assert_disjoint`. Because partition fingerprints
embed the physical ``pe_mask``, each tenant's plans get *distinct cache
identity* even when two tenants own shape-identical slices: the plan
cache can never hand tenant B a plan compiled for tenant A's slice, and
per-tenant compiled state is attributable by fingerprint alone.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from .config import ConfigurationError, PimConfig, assert_disjoint

#: Version tag baked into placement fingerprints; bump when the canonical
#: payload changes shape so stale identities can never collide.
PLACEMENT_FINGERPRINT_VERSION = 1


@dataclass(frozen=True)
class TenantSpec:
    """One tenant's claim on the machine, in the base config's id space.

    ``pe_ids`` (and optionally ``vault_ids``) are logical unit ids of the
    *base* config handed to :class:`TenantPlacement`; the placement maps
    them to physical ids through any existing mask via
    :meth:`PimConfig.partition`.
    """

    name: str
    pe_ids: Tuple[int, ...]
    vault_ids: Optional[Tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("tenant name must be non-empty")
        object.__setattr__(self, "pe_ids", tuple(int(p) for p in self.pe_ids))
        if self.vault_ids is not None:
            object.__setattr__(
                self, "vault_ids", tuple(int(v) for v in self.vault_ids)
            )


@dataclass(frozen=True)
class TenantPlacement:
    """Named, validated-disjoint carving of one machine into tenant slices.

    Construction proves the invariant the whole tenancy story rests on:
    no physical PE or vault is owned by two tenants. Everything downstream
    (per-tenant compile identity, co-resident == sum-of-isolated
    differentials) is sound *because* this check ran.
    """

    base: PimConfig
    specs: Tuple[TenantSpec, ...]
    #: name -> carved partition view; derived in ``__post_init__``.
    views: Mapping[str, PimConfig] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        if not self.specs:
            raise ConfigurationError("a placement needs at least one tenant")
        names = [spec.name for spec in self.specs]
        if len(set(names)) != len(names):
            dupes = sorted({n for n in names if names.count(n) > 1})
            raise ConfigurationError(f"duplicate tenant names: {dupes}")
        views: Dict[str, PimConfig] = {}
        for spec in self.specs:
            views[spec.name] = self.base.partition(spec.pe_ids, spec.vault_ids)
        assert_disjoint(views.values())
        object.__setattr__(self, "views", views)

    # ------------------------------------------------------------------
    # constructors
    # ------------------------------------------------------------------
    @classmethod
    def even(
        cls,
        base: PimConfig,
        names: Sequence[str],
        split_vaults: bool = False,
    ) -> "TenantPlacement":
        """Deal the machine out in contiguous equal-ish runs, one per name.

        Mirrors :meth:`PimConfig.split` — earlier tenants absorb the
        remainder, every unit lands in exactly one slice. With
        ``split_vaults`` the base's ``num_vaults`` vaults are dealt out
        too; otherwise no tenant claims a vault.
        """
        if not names:
            raise ConfigurationError("a placement needs at least one tenant")
        shards = base.split(len(names), split_vaults)
        specs = []
        start = 0
        vault_start = 0
        for name, shard in zip(names, shards):
            vault_ids = None
            if split_vaults:
                vault_ids = tuple(
                    range(vault_start, vault_start + shard.num_vaults)
                )
                vault_start += shard.num_vaults
            specs.append(
                TenantSpec(
                    name=name,
                    pe_ids=tuple(range(start, start + shard.num_pes)),
                    vault_ids=vault_ids,
                )
            )
            start += shard.num_pes
        return cls(base=base, specs=tuple(specs))

    @classmethod
    def of(
        cls,
        base: PimConfig,
        assignments: Mapping[str, Iterable[int]],
    ) -> "TenantPlacement":
        """Placement from a ``{name: pe_ids}`` mapping (no vault claims)."""
        specs = tuple(
            TenantSpec(name=name, pe_ids=tuple(pe_ids))
            for name, pe_ids in assignments.items()
        )
        return cls(base=base, specs=specs)

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    def config_for(self, name: str) -> PimConfig:
        """The tenant's partition view — serve on *this*, not ``.logical``.

        The view's fingerprint embeds the physical ``pe_mask``, which is
        what gives each tenant distinct plan-cache identity. (The fleet's
        shared plan store deliberately keys on the logical fingerprint
        for cross-shard warmth; tenancy wants the opposite — isolation.)
        """
        try:
            return self.views[name]
        except KeyError:
            raise ConfigurationError(
                f"unknown tenant {name!r}; placement has {sorted(self.views)}"
            ) from None

    def items(self) -> List[Tuple[str, PimConfig]]:
        return [(spec.name, self.views[spec.name]) for spec in self.specs]

    def with_degraded(
        self, name: str, surviving_pes: Iterable[int]
    ) -> "TenantPlacement":
        """A new placement where one tenant lost PEs (fault in its slice).

        ``surviving_pes`` are ids in the *tenant's* logical space (0-based
        within its slice), matching :meth:`PimConfig.degraded` semantics.
        The other tenants are untouched — a fault inside one tenant's
        slice must never change a co-resident's identity. The degraded
        view stays disjoint by construction (it shrinks).
        """
        survivors = sorted(set(int(p) for p in surviving_pes))
        new_specs = []
        for spec in self.specs:
            if spec.name != name:
                new_specs.append(spec)
                continue
            if any(p < 0 or p >= len(spec.pe_ids) for p in survivors):
                raise ConfigurationError(
                    f"surviving PE ids must be within "
                    f"[0, {len(spec.pe_ids)}) of tenant {name!r}'s slice, "
                    f"got {survivors}"
                )
            new_specs.append(
                TenantSpec(
                    name=spec.name,
                    pe_ids=tuple(spec.pe_ids[p] for p in survivors),
                    vault_ids=spec.vault_ids,
                )
            )
        if all(spec.name != name for spec in self.specs):
            raise ConfigurationError(
                f"unknown tenant {name!r}; placement has {sorted(self.names)}"
            )
        return TenantPlacement(base=self.base, specs=tuple(new_specs))

    # ------------------------------------------------------------------
    # identity
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """Canonical identity of the whole placement.

        Hashes the base config fingerprint plus every tenant's name and
        carved-view fingerprint in spec order; two placements that carve
        the same machine the same way for the same names are identical,
        and any change to any slice changes the placement identity.
        """
        payload = {
            "version": PLACEMENT_FINGERPRINT_VERSION,
            "base": self.base.fingerprint(),
            "tenants": [
                [spec.name, self.views[spec.name].fingerprint()]
                for spec in self.specs
            ],
        }
        blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def describe(self) -> str:
        lines = [f"placement over {self.base.num_pes} PEs:"]
        for spec in self.specs:
            view = self.views[spec.name]
            lines.append(f"  {spec.name}: {view.describe()}")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.specs)
