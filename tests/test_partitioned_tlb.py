"""Unit tests for TB-id TLB partitioning and dynamic set sharing."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
from repro.core.set_sharing import (
    AllToAllSharingRegister,
    CounterSharingRegister,
    SharingRegister,
)
from repro.translation.compression import CompressedTLB
from repro.translation.tlb import SetAssociativeTLB


class TestTBIDIndexPolicy:
    def test_even_partitioning_16_tbs_16_sets(self):
        policy = TBIDIndexPolicy(16, occupancy=16)
        owned = [tuple(policy.sets_for(t)) for t in range(16)]
        assert owned == [(i,) for i in range(16)]

    def test_four_tbs_get_four_sets_each(self):
        policy = TBIDIndexPolicy(16, occupancy=4)
        assert list(policy.sets_for(0)) == [0, 1, 2, 3]
        assert list(policy.sets_for(3)) == [12, 13, 14, 15]

    def test_all_sets_covered_with_odd_occupancy(self):
        policy = TBIDIndexPolicy(16, occupancy=3)
        covered = sorted(
            s for t in range(3) for s in policy.sets_for(t)
        )
        assert covered == list(range(16))

    def test_more_tbs_than_sets_share_from_start(self):
        # Paper footnote 1: occupancy > sets => TBs share sets initially.
        policy = TBIDIndexPolicy(4, occupancy=8)
        assert tuple(policy.sets_for(0)) == tuple(policy.sets_for(4))

    def test_requires_tb_id(self):
        policy = TBIDIndexPolicy(16, occupancy=16)
        with pytest.raises(ValueError):
            policy.lookup_sets(0, None)

    def test_lookup_includes_shared_partner_sets(self):
        sharing = SharingRegister(16)
        sharing.configure_occupancy(16)
        policy = TBIDIndexPolicy(16, occupancy=16, sharing=sharing)
        assert list(policy.lookup_sets(0, 3)) == [3]
        sharing.record_spill(3)
        assert list(policy.lookup_sets(0, 3)) == [3, 4]


class TestPartitionedL1TLB:
    def make(self, occupancy=16, sharing=None):
        tlb = SetAssociativeTLB(
            64, 4, 1.0, policy=TBIDIndexPolicy(16, sharing=sharing),
            hook=SetSharingSpill(),
        )
        tlb.configure_occupancy(occupancy)
        return tlb

    def test_isolation_between_tbs(self):
        tlb = self.make()
        tlb.insert(100, 1, tb_id=0)
        assert tlb.probe(100, tb_id=0)[0] is not None
        assert tlb.probe(100, tb_id=1)[0] is None

    def test_full_vpn_match_any_page_any_set(self):
        # TB-id indexing stores the whole VPN: any page can live in any set.
        tlb = self.make()
        tlb.insert(0, 10, tb_id=5)
        tlb.insert(16, 26, tb_id=5)   # would alias set 0 under VPN indexing
        assert tlb.probe(0, tb_id=5)[0] == 10
        assert tlb.probe(16, tb_id=5)[0] == 26

    def test_eviction_confined_to_own_set_without_sharing(self):
        tlb = self.make()
        for v in range(5):  # 4-way set: fifth insert evicts
            tlb.insert(v, v, tb_id=0)
        assert tlb.occupancy == 4
        assert tlb.probe(0, tb_id=0)[0] is None  # LRU evicted

    def test_multi_set_tb_probes_cost_more(self):
        tlb = self.make(occupancy=4)  # 4 sets per TB
        tlb.insert(7, 70, tb_id=0)
        _, probed = tlb.probe(8, tb_id=0)  # miss probes all 4 sets
        assert probed == 4
        assert tlb.probe_latency(probed) == 4.0

    def test_no_flush_on_tb_finish(self):
        # Paper: TB ids are recycled without flushing, preserving entries.
        tlb = self.make()
        tlb.insert(55, 5, tb_id=2)
        tlb.on_tb_finished(2)
        assert tlb.probe(55, tb_id=2)[0] is not None

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 4096)),
                    min_size=1, max_size=400))
    @settings(max_examples=40)
    def test_property_no_cross_tb_visibility_without_sharing(self, ops):
        tlb = self.make()
        inserted = {}
        for tb, vpn in ops:
            tlb.insert(vpn, vpn + 1, tb_id=tb)
            inserted[(tb, vpn)] = True
        for tb, vpn in inserted:
            for other in range(16):
                if other != tb:
                    result_ppn, _ = tlb.probe(vpn, tb_id=other)
                    # A hit from another TB only if that TB inserted it too.
                    if result_ppn is not None:
                        assert (other, vpn) in inserted


class TestSetSharing:
    def make_sharing(self):
        sharing = SharingRegister(16)
        tlb = SetAssociativeTLB(
            64, 4, 1.0, policy=TBIDIndexPolicy(16, sharing=sharing),
            hook=SetSharingSpill(),
        )
        tlb.configure_occupancy(16)
        return tlb, sharing

    def test_spill_to_adjacent_sets_flag(self):
        tlb, sharing = self.make_sharing()
        for v in range(5):  # overflow TB 0's set; evictee spills to TB 1
            tlb.insert(v, v, tb_id=0)
        assert sharing.is_sharing(0)
        assert tlb.probe(0, tb_id=0)[0] is not None  # found in the shared set
        assert tlb.stats.counter("sharing_spills").value == 1

    def test_no_spill_when_neighbor_full(self):
        tlb, sharing = self.make_sharing()
        for v in range(100, 104):
            tlb.insert(v, v, tb_id=1)           # fill TB 1's set
        for v in range(5):
            tlb.insert(v, v, tb_id=0)
        assert not sharing.is_sharing(0)
        assert tlb.probe(0, tb_id=0)[0] is None

    def test_flag_reset_on_tb_finish(self):
        tlb, sharing = self.make_sharing()
        for v in range(5):
            tlb.insert(v, v, tb_id=0)
        assert sharing.is_sharing(0)
        tlb.on_tb_finished(1)                   # TB 1 owns the shared set
        assert not sharing.is_sharing(0)

    def test_sharing_lookup_latency_includes_partner_sets(self):
        tlb, sharing = self.make_sharing()
        for v in range(5):
            tlb.insert(v, v, tb_id=0)
        _, probed = tlb.probe(999, tb_id=0)  # miss probes own + partner
        assert probed == 2


class TestSharingRegisters:
    def test_one_bit_register_neighbor_wraps(self):
        r = SharingRegister(16)
        r.configure_occupancy(4)
        assert r.neighbor(3) == 0

    def test_register_bits_cost(self):
        assert SharingRegister(16).bits == 16
        assert AllToAllSharingRegister(16).bits == 256

    def test_counter_register_needs_threshold(self):
        r = CounterSharingRegister(16, threshold=3)
        r.configure_occupancy(16)
        r.record_spill(2)
        r.record_spill(2)
        assert not r.is_sharing(2)
        r.record_spill(2)
        assert r.is_sharing(2)

    def test_counter_reset_on_finish(self):
        r = CounterSharingRegister(16, threshold=2)
        r.configure_occupancy(16)
        r.record_spill(2)
        r.record_spill(2)
        r.on_tb_finished(2)
        assert not r.is_sharing(2)
        r.record_spill(2)
        assert not r.is_sharing(2)  # counter restarted

    def test_all_to_all_tracks_partners(self):
        r = AllToAllSharingRegister(16)
        r.configure_occupancy(16)
        r.record_spill_to(0, 7)
        r.record_spill_to(0, 3)
        assert r.partners(0) == [3, 7]
        r.on_tb_finished(7)
        assert r.partners(0) == [3]

    def test_invalid_occupancy(self):
        r = SharingRegister(16)
        with pytest.raises(ValueError):
            r.configure_occupancy(0)
        with pytest.raises(ValueError):
            r.configure_occupancy(17)


class TestCompressedPartitioned:
    def test_composition_of_partitioning_and_compression(self):
        tlb = CompressedTLB(
            64, 4, 1.0, max_ratio=8,
            policy=TBIDIndexPolicy(16, granularity=8), hook=SetSharingSpill(),
        )
        tlb.configure_occupancy(16)
        for v in range(8):
            tlb.insert(v, 100 + v, tb_id=0)
        assert tlb.occupancy == 1          # one compressed range entry
        assert tlb.probe(3, tb_id=0)[0] == 103
        assert tlb.probe(3, tb_id=1)[0] is None
