"""Tests for the PIM machine configuration."""

import pytest

from repro.pim.config import PAPER_PE_SWEEP, ConfigurationError, PimConfig


class TestValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"num_pes": 0},
            {"cache_bytes_per_pe": -1},
            {"cache_slot_bytes": 0},
            {"cache_bytes_per_unit": 0},
            {"edram_latency_factor": 1},
            {"edram_latency_factor": 11},
            {"edram_energy_factor": 0},
            {"iterations": 0},
        ],
    )
    def test_invalid_rejected(self, kwargs):
        with pytest.raises(ConfigurationError):
            PimConfig(**kwargs)

    def test_paper_sweep(self):
        assert PAPER_PE_SWEEP == (16, 32, 64)

    def test_edram_factor_paper_envelope(self):
        # 2x and 10x (the paper's cited bounds) are both accepted
        PimConfig(edram_latency_factor=2)
        PimConfig(edram_latency_factor=10)


class TestCapacities:
    def test_aggregate_cache_in_paper_band_at_64(self):
        # paper Section 2.3: 100-300 KB for the entire PE array
        config = PimConfig(num_pes=64)
        assert 100_000 <= config.total_cache_bytes <= 300_000

    def test_total_slots(self):
        config = PimConfig(num_pes=4, cache_bytes_per_pe=1024,
                           cache_slot_bytes=512)
        assert config.total_cache_slots == 8

    def test_slots_required_rounds_up(self):
        config = PimConfig(cache_slot_bytes=512)
        assert config.slots_required(1) == 1
        assert config.slots_required(512) == 1
        assert config.slots_required(513) == 2

    def test_slots_required_rejects_non_positive(self):
        with pytest.raises(ConfigurationError):
            PimConfig().slots_required(0)


class TestTransferTiming:
    def test_cache_transfer_typically_free(self):
        config = PimConfig()
        assert config.cache_transfer_units(4096) == 0

    def test_cache_transfer_scales(self):
        config = PimConfig(cache_bytes_per_unit=1024)
        assert config.cache_transfer_units(4096) == 4

    def test_edram_at_least_one_unit(self):
        config = PimConfig()
        assert config.edram_transfer_units(1) == 1

    def test_edram_slower_than_cache(self):
        config = PimConfig()
        for size in (256, 1024, 4096, 65536):
            assert config.edram_transfer_units(size) >= config.cache_transfer_units(size)

    def test_edram_factor_applied(self):
        fast = PimConfig(edram_latency_factor=2)
        slow = PimConfig(edram_latency_factor=8)
        assert slow.edram_transfer_units(8192) > fast.edram_transfer_units(8192)

    def test_non_positive_sizes_rejected(self):
        config = PimConfig()
        with pytest.raises(ConfigurationError):
            config.cache_transfer_units(0)
        with pytest.raises(ConfigurationError):
            config.edram_transfer_units(-4)


class TestConvenience:
    def test_with_pes(self):
        base = PimConfig(num_pes=16, edram_latency_factor=6)
        wide = base.with_pes(64)
        assert wide.num_pes == 64
        assert wide.edram_latency_factor == 6
        assert base.num_pes == 16

    def test_describe_mentions_key_numbers(self):
        text = PimConfig(num_pes=32).describe()
        assert "32 PEs" in text
        assert "4x latency" in text


class TestPartition:
    """Intentional sub-machine carving (fleet shards) vs fault degrading."""

    def test_partition_provenance(self):
        shard = PimConfig(num_pes=16).partition(range(4, 8))
        assert shard.is_partition
        assert not shard.is_degraded
        assert shard.has_mask
        assert shard.num_pes == 4
        assert shard.pe_mask == (4, 5, 6, 7)

    def test_degraded_provenance_unchanged(self):
        survivor = PimConfig(num_pes=16).degraded(range(15))
        assert survivor.is_degraded
        assert not survivor.is_partition

    def test_healthy_fingerprint_has_no_mask_kind(self):
        # mask_kind is only serialized for non-fault masks, so healthy
        # and degraded fingerprints are byte-identical to older releases.
        healthy = PimConfig(num_pes=16)
        assert "mask_kind" not in healthy.to_dict()
        assert "mask_kind" not in healthy.degraded(range(8)).to_dict()
        assert (
            healthy.partition(range(8)).to_dict()["mask_kind"] == "partition"
        )

    def test_partition_and_degraded_fingerprints_differ(self):
        config = PimConfig(num_pes=16)
        assert (
            config.partition(range(8)).fingerprint()
            != config.degraded(range(8)).fingerprint()
        )

    def test_round_trip_preserves_mask_kind(self):
        shard = PimConfig(num_pes=16).partition(range(8), range(4))
        clone = PimConfig.from_dict(shard.to_dict())
        assert clone == shard
        assert clone.is_partition

    def test_invalid_mask_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            PimConfig(num_pes=4, pe_mask=(0, 1, 2, 3), mask_kind="oops")

    def test_partition_composes_through_masks(self):
        quarter = PimConfig(num_pes=16).partition(range(8)).partition(range(4, 8))
        assert quarter.pe_mask == (4, 5, 6, 7)
        assert quarter.is_partition

    def test_degrading_a_partition_is_degraded(self):
        shard = PimConfig(num_pes=16).partition(range(8, 16))
        hurt = shard.degraded(range(7))
        assert hurt.is_degraded
        assert hurt.pe_mask == (8, 9, 10, 11, 12, 13, 14)

    def test_describe_labels_partition(self):
        shard = PimConfig(num_pes=16).partition(range(4), range(2))
        text = shard.describe()
        assert "partition" in text
        assert "degraded" not in text


class TestVaultCount:
    """The machine owns its vault count; masks and splits read it."""

    def test_default_and_validation(self):
        assert PimConfig().num_vaults == 32
        with pytest.raises(ConfigurationError, match="num_vaults must be >= 1"):
            PimConfig(num_vaults=0)

    def test_vault_mask_must_match_count(self):
        with pytest.raises(ConfigurationError, match="num_vaults is 32"):
            PimConfig(num_pes=4, vault_mask=(0, 1))
        assert PimConfig(num_pes=4, num_vaults=2, vault_mask=(5, 9)).num_vaults == 2

    def test_masking_sets_count_from_survivors(self):
        degraded = PimConfig(num_pes=16).degraded(range(16), [0, 1])
        assert degraded.num_vaults == 2
        again = degraded.degraded(range(16), [1])
        assert again.vault_mask == (1,)
        assert again.num_vaults == 1
        assert PimConfig(num_pes=16).degraded(range(8)).num_vaults == 32

    @pytest.mark.parametrize(
        "pes, vaults, message",
        [
            ([0, 16], None, r"PE ids must be within \[0, 16\)"),
            ([-1, 0], None, r"PE ids must be within \[0, 16\)"),
            (range(16), [40, 41], r"vault ids must be within \[0, 32\)"),
            (range(16), [-1, 0], r"vault ids must be within \[0, 32\)"),
        ],
    )
    def test_surviving_ids_must_be_inside_the_machine(self, pes, vaults, message):
        with pytest.raises(ConfigurationError, match=message):
            PimConfig(num_pes=16).degraded(pes, vaults)

    def test_vault_ids_index_the_current_mask(self):
        shard = PimConfig(num_pes=16).partition(range(16), range(4))
        with pytest.raises(ConfigurationError, match=r"within \[0, 4\)"):
            shard.degraded(range(16), [4])

    def test_count_emitted_only_when_set(self):
        assert "num_vaults" not in PimConfig().to_dict()
        assert PimConfig(num_vaults=16).to_dict()["num_vaults"] == 16
        # A vault mask implies the count.
        masked = PimConfig(num_vaults=16).degraded(range(16), [3, 7])
        assert "num_vaults" not in masked.to_dict()

    @pytest.mark.parametrize(
        "config",
        [
            PimConfig(num_vaults=16),
            PimConfig(num_vaults=1, num_pes=4),
            PimConfig(num_vaults=16).degraded(range(16), [3, 7]),
            PimConfig(num_vaults=16).partition(range(8)),
        ],
    )
    def test_count_round_trips(self, config):
        clone = PimConfig.from_dict(config.to_dict())
        assert clone == config
        assert clone.num_vaults == config.num_vaults

    def test_count_stays_out_of_the_fingerprint(self):
        base = PimConfig(num_pes=16)
        assert PimConfig(num_pes=16, num_vaults=8).fingerprint() == base.fingerprint()
        assert (
            PimConfig(num_pes=16, num_vaults=8).logical_fingerprint()
            == base.logical_fingerprint()
        )

    def test_split_deals_out_the_configs_vaults(self):
        shards = PimConfig(num_pes=8, num_vaults=6).split(4, split_vaults=True)
        assert [s.vault_mask for s in shards] == [(0, 1), (2, 3), (4,), (5,)]
        assert [s.num_vaults for s in shards] == [2, 2, 1, 1]
        # Without split_vaults every shard keeps the whole vault array.
        assert [s.num_vaults for s in PimConfig(num_pes=8).split(4)] == [32] * 4


class TestSplit:
    def test_split_covers_every_pe_once(self):
        machine = PimConfig(num_pes=64)
        shards = machine.split(4, split_vaults=True)
        assert [s.num_pes for s in shards] == [16, 16, 16, 16]
        seen = [pe for s in shards for pe in s.pe_mask]
        assert seen == list(range(64))
        vaults = [v for s in shards for v in s.vault_mask]
        assert vaults == list(range(32))

    def test_remainder_goes_to_earlier_shards(self):
        shards = PimConfig(num_pes=10).split(3)
        assert [s.num_pes for s in shards] == [4, 3, 3]
        assert all(s.vault_mask is None for s in shards)

    def test_split_validation(self):
        with pytest.raises(ConfigurationError):
            PimConfig(num_pes=4).split(0)
        with pytest.raises(ConfigurationError):
            PimConfig(num_pes=4).split(5)
        with pytest.raises(ConfigurationError):
            PimConfig(num_pes=8, num_vaults=2).split(4, split_vaults=True)


class TestLogicalView:
    def test_healthy_machine_is_its_own_logical_view(self):
        config = PimConfig(num_pes=16)
        assert config.logical is config

    def test_shape_identical_shards_share_logical_fingerprint(self):
        shards = PimConfig(num_pes=64).split(4, split_vaults=True)
        prints = {s.logical_fingerprint() for s in shards}
        assert len(prints) == 1
        # ...and it is exactly the fingerprint of the plain 16-PE machine.
        assert prints == {PimConfig(num_pes=16).fingerprint()}

    def test_physical_fingerprints_stay_distinct(self):
        shards = PimConfig(num_pes=64).split(4)
        assert len({s.fingerprint() for s in shards}) == 4

    def test_logical_erases_fault_masks_too(self):
        survivor = PimConfig(num_pes=16).degraded(range(12))
        logical = survivor.logical
        assert not logical.has_mask
        assert logical.num_pes == 12
