"""Tests for the cache and eDRAM vault models."""

import pytest

from repro.pim.config import ConfigurationError, PimConfig
from repro.pim.memory import CacheModel, EdramVault, MemorySystem, Placement


class TestCacheModel:
    def test_insert_and_contains(self):
        cache = CacheModel(8)
        cache.insert("a", 3)
        assert cache.contains("a")
        assert cache.used_slots == 3
        assert cache.free_slots == 5

    def test_fits(self):
        cache = CacheModel(4)
        cache.insert("a", 3)
        assert cache.fits(1)
        assert not cache.fits(2)

    def test_lru_eviction_order(self):
        cache = CacheModel(4)
        cache.insert("a", 2)
        cache.insert("b", 2)
        cache.touch("a")  # refresh a; b becomes LRU
        evicted = cache.insert("c", 2)
        assert evicted == ["b"]
        assert cache.contains("a")
        assert cache.evictions == 1

    def test_eviction_disabled_raises(self):
        cache = CacheModel(2)
        cache.insert("a", 2)
        with pytest.raises(ConfigurationError, match="eviction disabled"):
            cache.insert("b", 1, evict=False)

    def test_oversized_entry_rejected(self):
        cache = CacheModel(2)
        with pytest.raises(ConfigurationError, match="exceeds"):
            cache.insert("big", 3)

    def test_duplicate_key_rejected(self):
        cache = CacheModel(4)
        cache.insert("a", 1)
        with pytest.raises(ConfigurationError, match="already resident"):
            cache.insert("a", 1)

    def test_hit_miss_counters(self):
        cache = CacheModel(4)
        cache.insert("a", 1)
        assert cache.touch("a") is True
        assert cache.touch("zzz") is False
        assert (cache.hits, cache.misses) == (1, 1)

    def test_remove_frees_space(self):
        cache = CacheModel(2)
        cache.insert("a", 2)
        cache.remove("a")
        assert cache.free_slots == 2
        with pytest.raises(ConfigurationError, match="not resident"):
            cache.remove("a")

    def test_clear(self):
        cache = CacheModel(4)
        cache.insert("a", 2)
        cache.clear()
        assert cache.used_slots == 0
        assert cache.resident_keys() == []

    def test_zero_slot_entry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheModel(4).insert("a", 0)

    def test_negative_capacity_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheModel(-1)


class TestEdramVault:
    def test_access_time_floor(self):
        vault = EdramVault(0, bytes_per_unit=2048)
        assert vault.access_time(1) == 1
        assert vault.access_time(4096) == 2

    def test_reads_queue(self):
        vault = EdramVault(0, bytes_per_unit=2048)
        first = vault.read(2048, now=0)
        second = vault.read(2048, now=0)  # same instant: must wait
        assert first == 1
        assert second == 2
        assert vault.reads == 2
        assert vault.bytes_read == 4096

    def test_idle_gap_not_charged(self):
        vault = EdramVault(0, bytes_per_unit=2048)
        vault.read(2048, now=0)
        later = vault.read(2048, now=100)
        assert later == 101

    def test_writes_tracked(self):
        vault = EdramVault(0, bytes_per_unit=2048)
        vault.write(512, now=0)
        assert vault.writes == 1
        assert vault.bytes_written == 512

    def test_reset(self):
        vault = EdramVault(0, bytes_per_unit=2048)
        vault.read(2048, now=0)
        vault.reset()
        assert vault.reads == 0
        assert vault.read(2048, now=0) == 1

    def test_invalid_sizes_rejected(self):
        vault = EdramVault(0, bytes_per_unit=2048)
        with pytest.raises(ConfigurationError):
            vault.access_time(0)
        with pytest.raises(ConfigurationError):
            EdramVault(0, bytes_per_unit=0)


class TestMemorySystem:
    def test_vault_interleaving_is_stable(self):
        system = MemorySystem(PimConfig(num_vaults=8))
        key = (3, 7)
        assert system.vault_for(key) is system.vault_for(key)

    def test_traffic_counters(self):
        system = MemorySystem(PimConfig())
        system.record_cache_transfer(100)
        system.record_edram_transfer(300)
        assert system.stats.cache_bytes == 100
        assert system.stats.edram_bytes == 300
        assert system.stats.offchip_fraction == pytest.approx(0.75)

    def test_reset(self):
        system = MemorySystem(PimConfig())
        system.cache.insert("a", 1)
        system.record_edram_transfer(10)
        system.reset()
        assert system.cache.used_slots == 0
        assert system.stats.total_bytes == 0

    def test_invalid_vault_count(self):
        with pytest.raises(ConfigurationError):
            MemorySystem(PimConfig(num_vaults=0))

    def test_placement_enum(self):
        assert Placement.CACHE.value == "cache"
        assert Placement.EDRAM.value == "edram"
