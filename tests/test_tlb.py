"""Unit tests for the set-associative TLB."""

import pytest
from conftest import entries
from hypothesis import given, settings, strategies as st

from repro.translation.tlb import SetAssociativeTLB, VPNIndexPolicy


def make_tlb(entries=64, assoc=4, latency=1.0, **kw):
    return SetAssociativeTLB(entries, assoc, latency, **kw)


class TestBasics:
    def test_miss_then_hit(self):
        tlb = make_tlb()
        assert tlb.probe(0x10)[0] is None
        tlb.insert(0x10, 0x99)
        result_ppn, _ = tlb.probe(0x10)
        assert result_ppn == 0x99

    def test_geometry(self):
        tlb = make_tlb(64, 4)
        assert tlb.num_sets == 16
        with pytest.raises(ValueError):
            make_tlb(65, 4)
        with pytest.raises(ValueError):
            make_tlb(0, 4)

    def test_stats_counting(self):
        tlb = make_tlb()
        tlb.probe(1)
        tlb.insert(1, 1)
        tlb.probe(1)
        assert tlb.hits == 1
        assert tlb.misses == 1
        assert tlb.accesses == 2

    def test_insert_refreshes_existing(self):
        tlb = make_tlb()
        tlb.insert(5, 50)
        assert tlb.insert(5, 51) is None
        assert tlb.probe(5)[0] == 51
        assert entries(tlb) == 1

    def test_invalidate(self):
        tlb = make_tlb()
        tlb.insert(7, 70)
        assert tlb.invalidate(7)
        assert not tlb.invalidate(7)
        assert tlb.probe(7)[0] is None

    def test_flush(self):
        tlb = make_tlb()
        for v in range(10):
            tlb.insert(v, v)
        tlb.flush()
        assert entries(tlb) == 0


class TestLRU:
    def test_lru_eviction_within_set(self):
        # 2-way, 1 set: third insert evicts least recently used.
        tlb = make_tlb(2, 2)
        tlb.insert(1, 1)
        tlb.insert(2, 2)
        tlb.probe(1)            # refresh 1: LRU is now 2
        evicted = tlb.insert(3, 3)
        assert evicted == 2
        assert tlb.probe(1)[0] is not None
        assert tlb.probe(2)[0] is None

    def test_set_isolation(self):
        # 4 entries, 2-way => 2 sets; VPNs 0 and 1 go to different sets.
        tlb = make_tlb(4, 2)
        tlb.insert(0, 0)
        tlb.insert(2, 2)
        tlb.insert(4, 4)  # evicts within set 0 only
        assert entries(tlb) <= 4
        assert len(tlb.sets[0]) == 2

    def test_probe_latency_scales_with_sets_probed(self):
        tlb = make_tlb(latency=2.0)
        assert tlb.probe_latency(1) == 2.0
        assert tlb.probe_latency(3) == 6.0
        assert tlb.probe_latency(0) == 2.0  # clamps at one set


class TestIndexPolicy:
    def test_vpn_policy_granularity(self):
        policy = VPNIndexPolicy(num_sets=4, granularity=8)
        assert policy.lookup_sets(0, None) == policy.lookup_sets(7, None)
        assert policy.lookup_sets(0, None) != policy.lookup_sets(8, None)

    def test_invalid_policy_parameters(self):
        with pytest.raises(ValueError):
            VPNIndexPolicy(0)
        with pytest.raises(ValueError):
            VPNIndexPolicy(4, granularity=0)


class TestProperties:
    @given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                    max_size=300))
    @settings(max_examples=50)
    def test_property_occupancy_bounded(self, vpns):
        tlb = make_tlb(16, 4)
        for v in vpns:
            tlb.insert(v, v + 1000)
        assert entries(tlb) <= 16
        for s in tlb.sets:
            assert len(s) <= 4

    @given(st.lists(st.integers(min_value=0, max_value=100), min_size=1,
                    max_size=300))
    @settings(max_examples=50)
    def test_property_probe_after_insert_without_pressure(self, vpns):
        """With a TLB bigger than the VPN universe, everything hits."""
        tlb = make_tlb(512, 4)
        for v in vpns:
            tlb.insert(v, v * 2)
        for v in set(vpns):
            result_ppn, _ = tlb.probe(v)
            assert result_ppn == v * 2

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=500))
    @settings(max_examples=30)
    def test_property_hit_implies_correct_ppn(self, vpns):
        tlb = make_tlb(64, 4)
        for v in vpns:
            result_ppn, _ = tlb.probe(v)
            if result_ppn is not None:
                assert result_ppn == v + 7
            else:
                tlb.insert(v, v + 7)
