"""Unit tests for page geometry and the UVM manager, whose resident map
is the page table the walkers consult."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.translation.address import GEOMETRY_2M, GEOMETRY_4K, PageGeometry
from repro.translation.uvm import AllocationPolicy, UVMManager


class TestGeometry:
    def test_page_sizes(self):
        assert GEOMETRY_4K.offset_bits == 12
        assert GEOMETRY_2M.offset_bits == 21

    def test_non_power_of_two_rejected(self):
        with pytest.raises(ValueError):
            PageGeometry(3000)


class TestUVM:
    def test_first_touch_faults_then_resident(self):
        uvm = UVMManager(far_fault_latency=1000.0)
        ppn, latency = uvm.ensure_mapped(7)
        assert latency == 1000.0
        ppn2, latency2 = uvm.ensure_mapped(7)
        assert (ppn2, latency2) == (ppn, 0.0)
        assert uvm.fault_count == 1

    def test_contiguous_policy_preserves_adjacency(self):
        uvm = UVMManager(policy=AllocationPolicy.CONTIGUOUS)
        p0, _ = uvm.ensure_mapped(100)
        p1, _ = uvm.ensure_mapped(101)
        assert p1 == p0 + 1

    def test_fragmented_policy_scatters(self):
        uvm = UVMManager(policy=AllocationPolicy.FRAGMENTED)
        p0, _ = uvm.ensure_mapped(100)
        p1, _ = uvm.ensure_mapped(101)
        assert p1 != p0 + 1

    def test_footprint_accounting(self):
        uvm = UVMManager()
        for vpn in range(4):
            uvm.ensure_mapped(vpn)
        assert uvm.footprint_bytes == 4 * 4096

    @given(st.lists(st.integers(min_value=0, max_value=10_000), min_size=1,
                    max_size=200))
    @settings(max_examples=30)
    def test_property_mapping_is_stable(self, vpns):
        uvm = UVMManager()
        first = {v: uvm.ensure_mapped(v)[0] for v in vpns}
        for v in vpns:
            assert uvm.ensure_mapped(v) == (first[v], 0.0)
        # Distinct pages must get distinct frames.
        assert len(set(first.values())) == len(first)
