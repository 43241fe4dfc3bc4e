"""Tenant placement: disjointness proofs, carving, identity, degradation."""

import pytest

from repro.pim.config import ConfigurationError, PimConfig, assert_disjoint
from repro.pim.tenancy import TenantPlacement, TenantSpec


class TestAssertDisjoint:
    def test_split_shards_are_disjoint(self):
        base = PimConfig(num_pes=16)
        assert_disjoint(base.split(4)) is None

    def test_split_with_vaults_is_disjoint(self):
        base = PimConfig(num_pes=16)
        assert_disjoint(base.split(4, split_vaults=True))

    def test_overlapping_pe_partitions_rejected(self):
        base = PimConfig(num_pes=8)
        views = [base.partition([0, 1, 2]), base.partition([2, 3])]
        with pytest.raises(ConfigurationError, match=r"physical PE ids \[2\]"):
            assert_disjoint(views)

    def test_overlapping_vaults_rejected(self):
        base = PimConfig(num_pes=8)
        views = [
            base.partition([0, 1], [0, 1]),
            base.partition([2, 3], [1, 2]),
        ]
        with pytest.raises(ConfigurationError, match=r"vault ids \[1\]"):
            assert_disjoint(views)

    def test_unmasked_configs_claim_whole_array(self):
        # Two full machines "own" the same physical PEs.
        with pytest.raises(ConfigurationError, match="not disjoint"):
            assert_disjoint([PimConfig(num_pes=4), PimConfig(num_pes=4)])

    def test_error_names_every_overlapping_unit(self):
        base = PimConfig(num_pes=8)
        views = [base.partition([0, 1, 2, 3]), base.partition([1, 3, 5])]
        with pytest.raises(ConfigurationError, match=r"\[1, 3\]"):
            assert_disjoint(views)

    def test_single_config_trivially_disjoint(self):
        assert_disjoint([PimConfig(num_pes=4)])

    def test_no_vault_mask_claims_no_vaults(self):
        base = PimConfig(num_pes=8)
        # One view claims vaults, the other claims none: no vault overlap.
        assert_disjoint([base.partition([0, 1], [0, 1]), base.partition([2, 3])])


class TestTenantPlacement:
    def test_even_carves_whole_machine(self):
        base = PimConfig(num_pes=16)
        placement = TenantPlacement.even(base, ["a", "b", "c"])
        assert placement.names == ("a", "b", "c")
        sizes = [len(placement.config_for(n).pe_mask) for n in placement.names]
        assert sum(sizes) == 16
        assert max(sizes) - min(sizes) <= 1

    def test_even_with_vaults(self):
        base = PimConfig(num_pes=16)
        placement = TenantPlacement.even(base, ["a", "b"], split_vaults=True)
        masks = [placement.config_for(n).vault_mask for n in placement.names]
        assert all(mask is not None for mask in masks)
        assert len(set(masks[0]) | set(masks[1])) == 32
        assert not set(masks[0]) & set(masks[1])

    def test_of_mapping(self):
        base = PimConfig(num_pes=8)
        placement = TenantPlacement.of(base, {"x": [0, 1, 2], "y": [5, 6]})
        assert placement.config_for("x").num_pes == 3
        assert placement.config_for("y").pe_mask == (5, 6)
        assert len(placement) == 2

    def test_overlap_rejected_at_construction(self):
        base = PimConfig(num_pes=8)
        with pytest.raises(ConfigurationError, match="not disjoint"):
            TenantPlacement.of(base, {"x": [0, 1], "y": [1, 2]})

    def test_duplicate_names_rejected(self):
        base = PimConfig(num_pes=8)
        specs = (
            TenantSpec("a", (0, 1)),
            TenantSpec("a", (2, 3)),
        )
        with pytest.raises(ConfigurationError, match="duplicate tenant"):
            TenantPlacement(base=base, specs=specs)

    def test_empty_placement_rejected(self):
        with pytest.raises(ConfigurationError, match="at least one"):
            TenantPlacement(base=PimConfig(num_pes=4), specs=())
        with pytest.raises(ConfigurationError, match="at least one"):
            TenantPlacement.even(PimConfig(num_pes=4), [])

    def test_unknown_tenant_lookup(self):
        placement = TenantPlacement.even(PimConfig(num_pes=4), ["a", "b"])
        with pytest.raises(ConfigurationError, match="unknown tenant"):
            placement.config_for("ghost")

    def test_items_follow_spec_order(self):
        placement = TenantPlacement.even(PimConfig(num_pes=8), ["z", "a", "m"])
        assert [name for name, _ in placement.items()] == ["z", "a", "m"]


class TestIdentity:
    def test_shape_identical_slices_get_distinct_fingerprints(self):
        """The property the shared plan cache depends on."""
        placement = TenantPlacement.even(PimConfig(num_pes=16), ["a", "b"])
        view_a = placement.config_for("a")
        view_b = placement.config_for("b")
        # Same shape -> same logical identity...
        assert view_a.logical_fingerprint() == view_b.logical_fingerprint()
        # ...but distinct physical placement -> distinct cache identity.
        assert view_a.fingerprint() != view_b.fingerprint()

    def test_placement_fingerprint_is_stable(self):
        base = PimConfig(num_pes=16)
        first = TenantPlacement.even(base, ["a", "b"]).fingerprint()
        second = TenantPlacement.even(base, ["a", "b"]).fingerprint()
        assert first == second

    def test_placement_fingerprint_tracks_slices_and_names(self):
        base = PimConfig(num_pes=16)
        even = TenantPlacement.even(base, ["a", "b"])
        renamed = TenantPlacement.even(base, ["a", "c"])
        recarved = TenantPlacement.of(base, {"a": range(4), "b": range(4, 16)})
        assert even.fingerprint() != renamed.fingerprint()
        assert even.fingerprint() != recarved.fingerprint()


class TestDegradation:
    def test_degraded_tenant_shrinks_others_untouched(self):
        placement = TenantPlacement.even(PimConfig(num_pes=16), ["a", "b"])
        before_a = placement.config_for("a").fingerprint()
        degraded = placement.with_degraded("b", range(4))
        assert degraded.config_for("b").num_pes == 4
        assert degraded.config_for("a").fingerprint() == before_a
        assert degraded.fingerprint() != placement.fingerprint()

    def test_degraded_slice_keeps_physical_ids(self):
        placement = TenantPlacement.of(
            PimConfig(num_pes=8), {"a": [0, 1], "b": [4, 5, 6, 7]}
        )
        degraded = placement.with_degraded("b", [1, 3])
        assert degraded.config_for("b").pe_mask == (5, 7)

    def test_out_of_slice_survivors_rejected(self):
        placement = TenantPlacement.even(PimConfig(num_pes=8), ["a", "b"])
        with pytest.raises(ConfigurationError, match="within"):
            placement.with_degraded("a", [0, 4])

    def test_unknown_tenant_rejected(self):
        placement = TenantPlacement.even(PimConfig(num_pes=8), ["a", "b"])
        with pytest.raises(ConfigurationError, match="unknown tenant"):
            placement.with_degraded("ghost", [0])

    def test_degraded_placement_still_disjoint(self):
        placement = TenantPlacement.even(PimConfig(num_pes=16), ["a", "b"])
        degraded = placement.with_degraded("a", [0, 1])
        assert_disjoint(view for _, view in degraded.items())
