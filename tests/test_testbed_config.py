"""Tests for testbed configuration."""

import pytest

from repro.storage import config as storage_config
from repro.storage.cache import CachePolicy
from repro.storage.config import (
    CpuCosts,
    paper_testbed,
    scaled_testbed,
    ssd_testbed,
)
from repro.storage.disk import MechanicalDisk, RamDisk, SolidStateDisk

MiB = 1024 * 1024


class TestPaperTestbed:
    def test_matches_paper_parameters(self):
        testbed = paper_testbed()
        assert testbed.ram_bytes == 512 * MiB
        assert testbed.device_kind == "hdd"
        assert testbed.cache_policy == CachePolicy.LRU

    def test_page_cache_is_about_410_mb(self):
        """The paper: a 410 MB file was the largest that fit in the page cache."""
        cache_mb = paper_testbed().page_cache_bytes / MiB
        assert 400 <= cache_mb <= 420

    def test_validates(self):
        paper_testbed().validate()

    def test_describe_mentions_ram_and_device(self):
        text = paper_testbed().describe()
        assert "512" in text and "hdd" in text


class TestScaledTestbed:
    def test_scaling_preserves_cache_fraction(self):
        full = paper_testbed()
        scaled = scaled_testbed(0.25)
        full_fraction = full.page_cache_bytes / full.ram_bytes
        scaled_fraction = scaled.page_cache_bytes / scaled.ram_bytes
        assert scaled_fraction == pytest.approx(full_fraction, rel=0.05)

    def test_invalid_scale_rejected(self):
        with pytest.raises(ValueError):
            scaled_testbed(0.0)
        with pytest.raises(ValueError):
            scaled_testbed(1.5)

    def test_scale_one_is_paper_size(self):
        assert scaled_testbed(1.0).ram_bytes == paper_testbed().ram_bytes


class TestValidation:
    def test_os_reservation_must_fit_in_ram(self):
        config = storage_config.TestbedConfig(ram_bytes=100 * MiB, os_reserved_bytes=200 * MiB)
        with pytest.raises(ValueError):
            config.validate()

    def test_page_size_must_be_power_of_two(self):
        config = storage_config.TestbedConfig(page_size=3000)
        with pytest.raises(ValueError):
            config.validate()

    def test_unknown_device_kind_rejected(self):
        config = storage_config.TestbedConfig(device_kind="tape")
        with pytest.raises(ValueError):
            config.validate()

    def test_cpu_costs_must_be_non_negative(self):
        with pytest.raises(ValueError):
            CpuCosts(syscall_overhead_ns=-1).validate()


class TestBuilders:
    def test_build_device_models(self):
        assert isinstance(paper_testbed().build_device_model(), MechanicalDisk)
        assert isinstance(ssd_testbed().build_device_model(), SolidStateDisk)
        ram_config = storage_config.TestbedConfig(device_kind="ramdisk")
        assert isinstance(ram_config.build_device_model(), RamDisk)

    def test_build_page_cache_sized_from_memory(self):
        testbed = paper_testbed()
        cache = testbed.build_page_cache()
        assert cache.capacity_pages == testbed.page_cache_pages

    def test_with_ram_and_policy_return_copies(self):
        base = paper_testbed()
        modified = base.with_ram(256 * MiB).with_cache_policy(CachePolicy.ARC)
        assert modified.ram_bytes == 256 * MiB
        assert modified.cache_policy == CachePolicy.ARC
        assert base.ram_bytes == 512 * MiB
        assert base.cache_policy == CachePolicy.LRU
