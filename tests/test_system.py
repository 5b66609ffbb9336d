"""Tests for the turn-key system assembly (repro.system)."""

import itertools

import pytest

from repro import BASELINE_CONFIG, L1TLBMode, build_gpu
from repro.core.partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
from repro.core.factory import build_l1_tlb, build_sharing_register
from repro.core.set_sharing import (
    AllToAllSharingRegister,
    CounterSharingRegister,
    SharingRegister,
)
from repro.arch.config import CompressionKind, ReplacementKind, SharingPolicyKind
from repro.engine.errors import ConfigError
from repro.translation.address import PAGE_2M
from repro.translation.compression import CompressedTLB, ContiguityTLB
from repro.translation.tlb import SetAssociativeTLB, VPNIndexPolicy


class TestFactory:
    def test_baseline_tlb(self):
        tlb = build_l1_tlb(BASELINE_CONFIG)
        assert type(tlb) is SetAssociativeTLB
        assert tlb.num_entries == 64

    def test_partitioned_tlb(self):
        cfg = BASELINE_CONFIG.replace(l1_tlb_mode=L1TLBMode.PARTITIONED)
        tlb = build_l1_tlb(cfg)
        assert type(tlb) is SetAssociativeTLB
        assert type(tlb.policy) is TBIDIndexPolicy
        assert tlb.sharing is None

    def test_partitioned_sharing_tlb(self):
        cfg = BASELINE_CONFIG.replace(
            l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING
        )
        tlb = build_l1_tlb(cfg)
        assert isinstance(tlb.sharing, SharingRegister)

    def test_compressed_variants(self):
        cfg = BASELINE_CONFIG.replace(l1_tlb_compression=True)
        assert type(build_l1_tlb(cfg)) is CompressedTLB
        cfg2 = cfg.replace(l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING)
        tlb = build_l1_tlb(cfg2)
        assert type(tlb) is CompressedTLB
        assert type(tlb.policy) is TBIDIndexPolicy
        assert tlb.sharing is not None

    def test_sharing_register_variants(self):
        for kind, cls in [
            (SharingPolicyKind.ONE_BIT, SharingRegister),
            (SharingPolicyKind.COUNTER, CounterSharingRegister),
            (SharingPolicyKind.ALL_TO_ALL, AllToAllSharingRegister),
        ]:
            cfg = BASELINE_CONFIG.replace(sharing_policy=kind)
            assert type(build_sharing_register(cfg)) is cls


_FORMATS = [
    pytest.param(False, None, SetAssociativeTLB, id="page"),
    pytest.param(True, CompressionKind.STRIDE, CompressedTLB, id="stride"),
    pytest.param(
        True, CompressionKind.CONTIGUITY, ContiguityTLB, id="contiguity"
    ),
]


class TestFactoryTable:
    """Every L1 organization GPUConfig accepts maps to the right parts."""

    @pytest.mark.parametrize("mode", list(L1TLBMode), ids=lambda m: m.value)
    @pytest.mark.parametrize("compression,kind,fmt", _FORMATS)
    def test_parts_for_every_combination(self, mode, compression, kind, fmt):
        for replacement, dead_entry, sharing_policy in itertools.product(
            ReplacementKind, (False, True), SharingPolicyKind
        ):
            fields = dict(
                l1_tlb_mode=mode,
                l1_tlb_compression=compression,
                l1_tlb_replacement=replacement,
                l1_tlb_dead_entry=dead_entry,
                sharing_policy=sharing_policy,
            )
            if kind is not None:
                fields["compression_kind"] = kind
            if compression and dead_entry:
                with pytest.raises(ConfigError):
                    BASELINE_CONFIG.replace(**fields)
                continue
            cfg = BASELINE_CONFIG.replace(**fields)
            tlb = build_l1_tlb(cfg)
            assert type(tlb) is fmt
            tbid = mode is not L1TLBMode.BASELINE
            assert type(tlb.policy) is (
                TBIDIndexPolicy if tbid else VPNIndexPolicy
            )
            if compression:
                assert tlb.policy.granularity == cfg.compression_max_ratio
            assert tlb.replacement == replacement.value
            shared = mode is L1TLBMode.PARTITIONED_SHARING
            assert isinstance(tlb.hook, SetSharingSpill) == tbid
            assert (tlb.sharing is not None) == shared
            if shared:
                assert type(tlb.sharing) is type(build_sharing_register(cfg))
            assert (tlb.dead_filter is not None) == dead_entry
            if dead_entry:
                assert tlb.dead_filter.threshold == cfg.dead_entry_threshold


class TestBuildGPU:
    def test_structure_matches_config(self):
        gpu = build_gpu(BASELINE_CONFIG)
        assert len(gpu.sms) == 16
        assert gpu.l2_tlb.num_entries == 512
        assert gpu.walkers._pool.n_servers == 8
        assert len(gpu.partitions.partitions) == 12

    def test_each_sm_gets_private_structures(self):
        gpu = build_gpu(BASELINE_CONFIG)
        tlbs = {id(sm.l1_tlb) for sm in gpu.sms}
        caches = {id(sm.memory.l1) for sm in gpu.sms}
        assert len(tlbs) == 16
        assert len(caches) == 16

    def test_shared_structures_are_shared(self):
        gpu = build_gpu(BASELINE_CONFIG)
        services = {id(sm.translation) for sm in gpu.sms}
        assert len(services) == 1

    def test_huge_page_geometry_propagates(self):
        gpu = build_gpu(BASELINE_CONFIG.replace(page_size=PAGE_2M))
        assert gpu.geometry.page_size == PAGE_2M
        assert gpu.walkers.uvm.geometry.page_size == PAGE_2M

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            BASELINE_CONFIG.replace(l1_tlb_entries=63)
        with pytest.raises(ValueError):
            BASELINE_CONFIG.replace(num_sms=0)
