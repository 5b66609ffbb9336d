"""Tests for GPUConfig.__post_init__ validation (fail fast, name field)."""

import pytest

from repro.arch.config import BASELINE_CONFIG, L1TLBMode
from repro.engine.errors import ConfigError


class TestPositivity:
    @pytest.mark.parametrize(
        "field",
        ["num_sms", "l1_tlb_entries", "l2_tlb_entries", "num_walkers",
         "max_tbs_per_sm", "page_size", "warp_size", "line_bytes"],
    )
    def test_nonpositive_rejected(self, field):
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(**{field: 0})
        assert info.value.field == field
        assert field in str(info.value)

    def test_negative_latency_rejected(self):
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(walk_latency=-1.0)
        assert info.value.field == "walk_latency"

    def test_zero_latency_allowed(self):
        BASELINE_CONFIG.replace(l1_tlb_latency=0.0)  # no raise

    def test_gpu_memory_cap_must_be_positive(self):
        with pytest.raises(ConfigError):
            BASELINE_CONFIG.replace(gpu_memory_bytes=0)
        BASELINE_CONFIG.replace(gpu_memory_bytes=None)  # uncapped: fine


class TestTLBGeometry:
    def test_entries_must_divide_by_assoc(self):
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(l1_tlb_entries=65)
        assert "l1_tlb" in str(info.value)

    def test_assoc_must_be_power_of_two(self):
        with pytest.raises(ConfigError):
            BASELINE_CONFIG.replace(l1_tlb_entries=60, l1_tlb_assoc=3)

    def test_set_count_must_be_power_of_two(self):
        # 96 entries / 4-way = 24 sets: divisible but not a power of two
        with pytest.raises(ConfigError):
            BASELINE_CONFIG.replace(l1_tlb_entries=96, l1_tlb_assoc=4)

    def test_l2_geometry_checked_too(self):
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(l2_tlb_entries=500)
        assert "l2_tlb" in str(info.value)

    def test_page_size_power_of_two(self):
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(page_size=5000)
        assert info.value.field == "page_size"

    def test_line_bytes_power_of_two(self):
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(line_bytes=96)
        assert info.value.field == "line_bytes"


class TestPartitioning:
    def test_partition_count_must_align_with_sets(self):
        # PARTITIONED: 64 entries / 4-way = 16 sets must divide (or be
        # divided by) max_tbs_per_sm
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(
                l1_tlb_mode=L1TLBMode.PARTITIONED, max_tbs_per_sm=6
            )
        assert "partition" in str(info.value).lower()

    def test_aligned_partitioning_accepted(self):
        BASELINE_CONFIG.replace(
            l1_tlb_mode=L1TLBMode.PARTITIONED, max_tbs_per_sm=8
        )
        BASELINE_CONFIG.replace(
            l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING, max_tbs_per_sm=32
        )

    def test_baseline_mode_not_constrained(self):
        BASELINE_CONFIG.replace(
            l1_tlb_mode=L1TLBMode.BASELINE, max_tbs_per_sm=6
        )


class TestErrorShape:
    def test_config_error_is_value_error(self):
        # pre-taxonomy callers catch ValueError; keep that working
        with pytest.raises(ValueError):
            BASELINE_CONFIG.replace(num_sms=-1)

    def test_thread_warp_mismatch(self):
        with pytest.raises(ConfigError) as info:
            BASELINE_CONFIG.replace(max_threads_per_sm=2050)
        assert info.value.field == "max_threads_per_sm"
