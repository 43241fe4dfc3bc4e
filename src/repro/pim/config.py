"""PIM machine configuration (paper Sections 2.1-2.3, 4.1).

The paper evaluates a Neurocube-derived architecture with up to 64
processing engines connected by a crossbar, an aggregate on-chip cache of
100-300 KB for the whole PE array, and stacked eDRAM vaults whose access
costs 2-10x more time and energy than the PE cache. :class:`PimConfig`
captures those parameters plus the translation from intermediate-result
sizes to transfer times in abstract schedule time units.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, replace
from typing import Any, Dict, Iterable, Optional, Tuple

#: Version tag baked into every fingerprint; bump when a field is added,
#: removed or reinterpreted so stale cached plans can never be confused
#: with plans compiled under the new semantics.
CONFIG_FINGERPRINT_VERSION = 1

#: Vault count of a :class:`PimConfig` that names none.
DEFAULT_NUM_VAULTS = 32

#: Depth of a PE's pFIFO, in staged intermediate results.
PFIFO_DEPTH = 16


#: Mask provenance values (see :attr:`PimConfig.mask_kind`).
MASK_KIND_FAULT = "fault"
MASK_KIND_PARTITION = "partition"


class ConfigurationError(ValueError):
    """Raised for inconsistent machine configurations."""


@dataclass(frozen=True)
class PimConfig:
    """Machine description shared by the analytic model and the simulator.

    Attributes:
        num_pes: number of processing engines (the paper sweeps 16/32/64).
        cache_bytes_per_pe: data-cache capacity of one PE. The default of
            4 KiB yields 64 KiB-256 KiB aggregate across 16-64 PEs, inside
            the paper's 100-300 KB envelope at the upper configurations.
        cache_slot_bytes: allocation granularity of the cache. The dynamic
            program of Section 3.3 runs over slots, keeping the ``B[S, m]``
            table tractable; intermediate results occupy
            ``ceil(size / cache_slot_bytes)`` slots.
        cache_bytes_per_unit: bytes one schedule time unit can move from the
            PE cache into a consuming PE (on-chip path: pFIFO/RF). With the
            default, typical intermediate results transfer in zero whole
            time units -- matching Figure 3, where cache-resident results
            add no delay.
        edram_latency_factor: vault-fetch slowdown relative to cache; the
            paper cites 2-10x.
        edram_energy_factor: vault-fetch energy ratio relative to cache.
        iterations: number of steady-state iterations ``N`` assumed when a
            total execution time is reported (prologue + N kernels).
        pe_mask: for a *degraded* machine, the sorted tuple of surviving
            physical PE ids (relative to the original healthy array);
            ``None`` on a healthy machine. ``num_pes`` always equals the
            survivor count, so the whole compile pipeline (width search
            included) sees a smaller-but-ordinary machine, while the
            fingerprint still distinguishes *which* PEs survived.
        num_vaults: number of eDRAM vaults in the stacked memory. The one
            place the vault count lives: the simulator interleaves
            eDRAM-placed results over this many vaults (the ``vault``
            column of :func:`repro.core.retiming.price_edges`), and every
            serving tier reads it from here. Kept out of
            :meth:`fingerprint` -- no compile pass reads the ``vault``
            column -- so plans are shared between machines that differ
            only in vault count.
        vault_mask: surviving (or owned) physical eDRAM vault ids of a
            sub-machine; ``None`` when the machine owns all its vaults.
            ``num_vaults`` always equals the mask length, exactly as
            ``num_pes`` equals the ``pe_mask`` length, so a vault-degraded
            machine simulates only its survivors.
        mask_kind: provenance of the masks. ``"fault"`` (the default)
            means the sub-machine exists because units died
            (:meth:`degraded`); ``"partition"`` means it was carved on
            purpose (:meth:`partition` — fleet sharding, multi-tenant
            spatial partitioning). Serialized only when a mask is set and
            the kind is not ``"fault"``, so every pre-existing fingerprint
            (healthy *and* degraded) stays byte-identical.
    """

    num_pes: int = 16
    cache_bytes_per_pe: int = 4096
    cache_slot_bytes: int = 512
    cache_bytes_per_unit: int = 8192
    edram_latency_factor: int = 4
    edram_energy_factor: int = 6
    iterations: int = 1000
    num_vaults: int = DEFAULT_NUM_VAULTS
    pe_mask: Optional[Tuple[int, ...]] = None
    vault_mask: Optional[Tuple[int, ...]] = None
    mask_kind: str = MASK_KIND_FAULT

    def __post_init__(self) -> None:
        if self.num_pes < 1:
            raise ConfigurationError("num_pes must be >= 1")
        if self.num_vaults < 1:
            raise ConfigurationError("num_vaults must be >= 1")
        if self.mask_kind not in (MASK_KIND_FAULT, MASK_KIND_PARTITION):
            raise ConfigurationError(
                f"mask_kind must be 'fault' or 'partition', got "
                f"{self.mask_kind!r}"
            )
        for name in ("pe_mask", "vault_mask"):
            mask = getattr(self, name)
            if mask is None:
                continue
            normalized = tuple(sorted(int(u) for u in mask))
            if len(set(normalized)) != len(normalized):
                raise ConfigurationError(f"{name} contains duplicate ids")
            if normalized and normalized[0] < 0:
                raise ConfigurationError(f"{name} ids must be >= 0")
            if not normalized:
                raise ConfigurationError(f"{name} must keep at least one unit")
            object.__setattr__(self, name, normalized)
        if self.pe_mask is not None and len(self.pe_mask) != self.num_pes:
            raise ConfigurationError(
                f"pe_mask lists {len(self.pe_mask)} surviving PEs but "
                f"num_pes is {self.num_pes}"
            )
        if self.vault_mask is not None and len(self.vault_mask) != self.num_vaults:
            raise ConfigurationError(
                f"vault_mask lists {len(self.vault_mask)} surviving vaults "
                f"but num_vaults is {self.num_vaults}"
            )
        if self.cache_bytes_per_pe < 0:
            raise ConfigurationError("cache_bytes_per_pe must be >= 0")
        if self.cache_slot_bytes < 1:
            raise ConfigurationError("cache_slot_bytes must be >= 1")
        if self.cache_bytes_per_unit < 1:
            raise ConfigurationError("cache_bytes_per_unit must be >= 1")
        if not 2 <= self.edram_latency_factor <= 10:
            raise ConfigurationError(
                "edram_latency_factor outside the paper's 2-10x envelope: "
                f"{self.edram_latency_factor}"
            )
        if self.edram_energy_factor < 1:
            raise ConfigurationError("edram_energy_factor must be >= 1")
        if self.iterations < 1:
            raise ConfigurationError("iterations must be >= 1")

    # ------------------------------------------------------------------
    # capacities
    # ------------------------------------------------------------------
    @property
    def total_cache_bytes(self) -> int:
        """Aggregate on-chip cache across the PE array."""
        return self.num_pes * self.cache_bytes_per_pe

    @property
    def total_cache_slots(self) -> int:
        """Aggregate cache capacity in allocation slots (DP capacity ``S``)."""
        return self.total_cache_bytes // self.cache_slot_bytes

    def slots_required(self, size_bytes: int) -> int:
        """Cache slots ``sp_m`` an intermediate result of ``size_bytes`` needs."""
        if size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        return max(1, math.ceil(size_bytes / self.cache_slot_bytes))

    # ------------------------------------------------------------------
    # transfer timing (abstract schedule time units)
    # ------------------------------------------------------------------
    def cache_transfer_units(self, size_bytes: int) -> int:
        """Time units to move an intermediate result via the on-chip cache.

        Zero for results smaller than one unit's worth of on-chip bandwidth:
        the transfer hides inside the producer/consumer occupancy, exactly
        like the cache-resident results of the motivational example.
        """
        if size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        return size_bytes // self.cache_bytes_per_unit

    def edram_transfer_units(self, size_bytes: int) -> int:
        """Time units to round-trip an intermediate result through eDRAM.

        At least one whole unit (the vault access itself), scaled by the
        2-10x latency factor of the stacked memory path.
        """
        if size_bytes <= 0:
            raise ConfigurationError("size_bytes must be positive")
        scaled = (size_bytes * self.edram_latency_factor) // self.cache_bytes_per_unit
        return max(1, scaled)

    # ------------------------------------------------------------------
    # canonical serialization / fingerprinting
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """Canonical dictionary form with stable field ordering.

        The field order is fixed (not reflection-derived) so that the
        JSON rendering — and therefore :meth:`fingerprint` — is stable
        across Python versions and dataclass refactorings. A version tag
        travels with the payload so future field changes invalidate old
        fingerprints instead of silently colliding.

        Degradation masks are emitted *only when set*: a healthy machine
        serializes (and therefore fingerprints) exactly as it did before
        fault tolerance existed, so cached plans and golden fixtures for
        healthy machines stay valid, while every distinct surviving-unit
        mask produces a distinct fingerprint. ``num_vaults`` follows the
        same rule: it is emitted only when it differs from the default and
        no ``vault_mask`` implies it.
        """
        payload: Dict[str, Any] = {
            "fingerprint_version": CONFIG_FINGERPRINT_VERSION,
            "num_pes": self.num_pes,
            "cache_bytes_per_pe": self.cache_bytes_per_pe,
            "cache_slot_bytes": self.cache_slot_bytes,
            "cache_bytes_per_unit": self.cache_bytes_per_unit,
            "edram_latency_factor": self.edram_latency_factor,
            "edram_energy_factor": self.edram_energy_factor,
            "iterations": self.iterations,
        }
        if self.vault_mask is None and self.num_vaults != DEFAULT_NUM_VAULTS:
            payload["num_vaults"] = self.num_vaults
        if self.pe_mask is not None:
            payload["pe_mask"] = list(self.pe_mask)
        if self.vault_mask is not None:
            payload["vault_mask"] = list(self.vault_mask)
        if self.has_mask and self.mask_kind != MASK_KIND_FAULT:
            payload["mask_kind"] = self.mask_kind
        return payload

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "PimConfig":
        """Rebuild a configuration from :meth:`to_dict` output."""
        version = payload.get("fingerprint_version", CONFIG_FINGERPRINT_VERSION)
        if version != CONFIG_FINGERPRINT_VERSION:
            raise ConfigurationError(
                f"unsupported PimConfig payload version {version!r}"
            )
        pe_mask = payload.get("pe_mask")
        vault_mask = payload.get("vault_mask")
        return cls(
            num_pes=int(payload["num_pes"]),
            cache_bytes_per_pe=int(payload["cache_bytes_per_pe"]),
            cache_slot_bytes=int(payload["cache_slot_bytes"]),
            cache_bytes_per_unit=int(payload["cache_bytes_per_unit"]),
            edram_latency_factor=int(payload["edram_latency_factor"]),
            edram_energy_factor=int(payload["edram_energy_factor"]),
            iterations=int(payload["iterations"]),
            num_vaults=int(payload.get(
                "num_vaults",
                len(vault_mask) if vault_mask is not None else DEFAULT_NUM_VAULTS,
            )),
            pe_mask=tuple(int(p) for p in pe_mask) if pe_mask is not None else None,
            vault_mask=(
                tuple(int(v) for v in vault_mask)
                if vault_mask is not None
                else None
            ),
            mask_kind=str(payload.get("mask_kind", MASK_KIND_FAULT)),
        )

    def fingerprint(self) -> str:
        """Stable content hash of this configuration (hex digest).

        Equal configurations always produce equal fingerprints; any field
        change except ``num_vaults`` (or a bump of
        :data:`CONFIG_FINGERPRINT_VERSION`) produces a different one. Used
        by :mod:`repro.runtime.plan_cache` to key compiled plans; the vault
        count stays out because no compile pass reads it.
        """
        payload = self.to_dict()
        payload.pop("num_vaults", None)
        canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # sub-machine views (degraded / partition)
    # ------------------------------------------------------------------
    @property
    def has_mask(self) -> bool:
        """True when this config describes any sub-machine at all."""
        return self.pe_mask is not None or self.vault_mask is not None

    @property
    def is_degraded(self) -> bool:
        """True when this config is a sub-machine because units *died*."""
        return self.has_mask and self.mask_kind == MASK_KIND_FAULT

    @property
    def is_partition(self) -> bool:
        """True when this config is an intentionally carved partition."""
        return self.has_mask and self.mask_kind == MASK_KIND_PARTITION

    def _masked(
        self,
        unit_ids: Iterable[int],
        vault_ids: Optional[Iterable[int]],
        mask_kind: str,
    ) -> "PimConfig":
        """Shared mask mechanism behind :meth:`degraded` / :meth:`partition`."""
        survivors = sorted(set(int(p) for p in unit_ids))
        if not survivors:
            raise ConfigurationError("at least one PE must survive")
        if survivors[0] < 0 or survivors[-1] >= self.num_pes:
            raise ConfigurationError(
                f"surviving PE ids must be within [0, {self.num_pes}), "
                f"got {survivors}"
            )
        if self.pe_mask is not None:
            pe_mask = tuple(self.pe_mask[p] for p in survivors)
        else:
            pe_mask = tuple(survivors)
        vault_mask = self.vault_mask
        if vault_ids is not None:
            vault_list = sorted(set(int(v) for v in vault_ids))
            if not vault_list:
                raise ConfigurationError("at least one vault must survive")
            if vault_list[0] < 0 or vault_list[-1] >= self.num_vaults:
                raise ConfigurationError(
                    f"surviving vault ids must be within "
                    f"[0, {self.num_vaults}), got {vault_list}"
                )
            if self.vault_mask is not None:
                vault_mask = tuple(self.vault_mask[v] for v in vault_list)
            else:
                vault_mask = tuple(vault_list)
        return replace(
            self,
            num_pes=len(pe_mask),
            num_vaults=(
                self.num_vaults if vault_mask is None else len(vault_mask)
            ),
            pe_mask=pe_mask,
            vault_mask=vault_mask,
            mask_kind=mask_kind,
        )

    def degraded(
        self,
        surviving_pes: Iterable[int],
        surviving_vaults: Optional[Iterable[int]] = None,
    ) -> "PimConfig":
        """A reduced-but-valid config for the surviving sub-machine.

        ``surviving_pes`` (and optionally ``surviving_vaults``) are unit
        ids in *this* config's logical space — composition through an
        existing mask is handled here, so degrading an already degraded
        machine keeps the physical-id provenance straight. The result has
        ``num_pes = len(surviving_pes)`` (the aggregate cache shrinks with
        it — a dead PE takes its cache slice with it), passes every
        ordinary validity check, and fingerprints differently for every
        distinct surviving mask, which is what keys degraded plans in the
        plan cache. Degrading a partition marks the result as fault
        provenance: a shard that lost a unit *is* degraded.
        """
        return self._masked(surviving_pes, surviving_vaults, MASK_KIND_FAULT)

    def partition(
        self,
        pe_ids: Iterable[int],
        vault_ids: Optional[Iterable[int]] = None,
    ) -> "PimConfig":
        """An intentionally carved sub-machine (fleet shard, tenant slice).

        Same mask mechanism as :meth:`degraded` — the result is a
        smaller-but-ordinary machine whose fingerprint records *which*
        physical units it owns — but with non-fault provenance:
        ``is_partition`` is true and ``is_degraded`` stays false, so the
        serving runtime does not report a healthy shard as a degraded
        machine. Composes through existing masks (partitioning a
        partition re-maps through the parent's physical ids).
        """
        return self._masked(pe_ids, vault_ids, MASK_KIND_PARTITION)

    def split(
        self, num_partitions: int, split_vaults: bool = False
    ) -> "list[PimConfig]":
        """Carve this machine into ``num_partitions`` contiguous shards.

        PEs (and, when ``split_vaults`` is set, the ``num_vaults`` vaults)
        are dealt out in contiguous runs, earlier shards absorbing the
        remainder — every unit lands in exactly one shard. The shards are
        :meth:`partition` views, so their fingerprints record physical
        ownership while their *logical* shape is an ordinary machine.
        Without ``split_vaults`` every shard keeps all the vaults.
        """
        if num_partitions < 1:
            raise ConfigurationError("num_partitions must be >= 1")
        if num_partitions > self.num_pes:
            raise ConfigurationError(
                f"cannot split {self.num_pes} PEs into {num_partitions} "
                f"partitions"
            )
        if split_vaults and self.num_vaults < num_partitions:
            raise ConfigurationError(
                f"cannot split {self.num_vaults} vaults into {num_partitions} "
                f"partitions"
            )

        def runs(total: int) -> "list[list[int]]":
            base, extra = divmod(total, num_partitions)
            out, start = [], 0
            for index in range(num_partitions):
                width = base + (1 if index < extra else 0)
                out.append(list(range(start, start + width)))
                start += width
            return out

        pe_runs = runs(self.num_pes)
        vault_runs = (
            runs(self.num_vaults) if split_vaults
            else [None] * num_partitions
        )
        return [
            self.partition(pes, vaults)
            for pes, vaults in zip(pe_runs, vault_runs)
        ]

    @property
    def logical(self) -> "PimConfig":
        """The shape of this machine with physical placement erased.

        Two shards that own different physical units but the same number
        of PEs/vaults and the same cache parameters have equal logical
        configs — and, because the compile pipeline only reads the
        logical shape, they compile *identical plans*. The fleet keys its
        shared plan store on :meth:`logical_fingerprint` for exactly this
        reason: a plan compiled on any shard is warm on every
        shape-identical shard. A healthy machine is its own logical view.
        """
        if not self.has_mask:
            return self
        return replace(
            self, pe_mask=None, vault_mask=None, mask_kind=MASK_KIND_FAULT
        )

    def logical_fingerprint(self) -> str:
        """Fingerprint of :attr:`logical` (placement-independent identity)."""
        return self.logical.fingerprint()

    # ------------------------------------------------------------------
    # convenience
    # ------------------------------------------------------------------
    def with_pes(self, num_pes: int) -> "PimConfig":
        """Copy of this configuration with a different PE count.

        Degradation masks are dropped: callers use this to carve
        sub-arrays (the executor sizes one PE group with it), where the
        physical-survivor provenance no longer applies. Use
        :meth:`degraded` to *shrink while keeping identity*.
        """
        return replace(self, num_pes=num_pes, pe_mask=None)

    def describe(self) -> str:
        """One-line human-readable summary."""
        base = (
            f"{self.num_pes} PEs, {self.total_cache_bytes // 1024} KiB aggregate "
            f"cache ({self.cache_bytes_per_pe} B/PE, {self.cache_slot_bytes} B "
            f"slots), eDRAM {self.edram_latency_factor}x latency / "
            f"{self.edram_energy_factor}x energy"
        )
        if self.has_mask:
            marks = []
            if self.pe_mask is not None:
                marks.append(f"PEs {list(self.pe_mask)}")
            if self.vault_mask is not None:
                marks.append(f"vaults {list(self.vault_mask)}")
            label = "partition" if self.is_partition else "degraded"
            base += f" [{label}: {', '.join(marks)}]"
        return base


def assert_disjoint(configs: Iterable["PimConfig"]) -> None:
    """Prove a set of sub-machine views shares no physical unit.

    Spatial partitioning (fleet shards, multi-tenant placements) is only
    sound when no physical PE or vault is owned by two views at once — a
    shared unit would make "co-resident aggregates == sum of isolated
    runs" false by construction. This helper is the one place that check
    lives: it maps every config back to *physical* unit ids (``pe_mask``
    when set, else the whole ``0..num_pes-1`` array; ``vault_mask`` when
    set — a view without a vault mask claims no specific vaults) and
    raises :class:`ConfigurationError` naming every overlapping id.

    Deliberately independent of :class:`~repro.pim.tenancy.TenantPlacement`
    so ad-hoc carvings (``PimConfig.split`` results, hand-built
    partitions) can be validated too.
    """
    views = list(configs)
    pe_owners: Dict[int, int] = {}
    vault_owners: Dict[int, int] = {}
    pe_overlap: set = set()
    vault_overlap: set = set()
    for index, view in enumerate(views):
        pes = view.pe_mask if view.pe_mask is not None else range(view.num_pes)
        for pe in pes:
            if pe in pe_owners and pe_owners[pe] != index:
                pe_overlap.add(pe)
            else:
                pe_owners[pe] = index
        if view.vault_mask is not None:
            for vault in view.vault_mask:
                if vault in vault_owners and vault_owners[vault] != index:
                    vault_overlap.add(vault)
                else:
                    vault_owners[vault] = index
    if pe_overlap or vault_overlap:
        parts = []
        if pe_overlap:
            parts.append(f"physical PE ids {sorted(pe_overlap)}")
        if vault_overlap:
            parts.append(f"physical vault ids {sorted(vault_overlap)}")
        raise ConfigurationError(
            "partitions are not disjoint: "
            + " and ".join(parts)
            + " are owned by more than one config"
        )


#: The three PE-array configurations the paper sweeps in every experiment.
PAPER_PE_SWEEP = (16, 32, 64)
