"""Unit tests for the stride-compressed TLB (PACT'20 comparator)."""

from conftest import entries
from hypothesis import given, settings, strategies as st

from repro.translation.compression import CompressedTLB


def make(entries=64, assoc=4, max_ratio=8, **kw):
    return CompressedTLB(entries, assoc, 1.0, max_ratio=max_ratio, **kw)


def test_contiguous_fills_coalesce_into_one_entry():
    tlb = make()
    for v in range(8):
        tlb.insert(v, 100 + v)
    assert entries(tlb) == 1
    for v in range(8):
        r_ppn, _ = tlb.probe(v)
        assert r_ppn == 100 + v


def test_range_never_exceeds_max_ratio():
    tlb = make(max_ratio=4)
    for v in range(8):
        tlb.insert(v, 100 + v)
    assert entries(tlb) == 2  # two aligned ranges of 4


def test_ranges_do_not_cross_region_boundary():
    tlb = make(max_ratio=4)
    tlb.insert(3, 103)
    tlb.insert(4, 104)  # next region: cannot extend
    assert entries(tlb) == 2


def test_non_contiguous_ppn_does_not_coalesce():
    tlb = make()
    tlb.insert(0, 100)
    tlb.insert(1, 555)  # inconsistent stride
    assert entries(tlb) == 2
    assert tlb.probe(0)[0] == 100
    assert tlb.probe(1)[0] == 555


def test_backward_extension():
    tlb = make()
    tlb.insert(5, 105)
    tlb.insert(4, 104)
    assert entries(tlb) == 1
    assert tlb.probe(4)[0] is not None and tlb.probe(5)[0] is not None


def test_remap_drops_stale_range():
    tlb = make()
    tlb.insert(0, 100)
    tlb.insert(1, 101)
    tlb.insert(1, 999)  # page 1 remapped: the stale range is dropped
    assert tlb.probe(1)[0] == 999
    # Page 0's mapping is never served stale: either gone or still correct.
    result_ppn, _ = tlb.probe(0)
    assert result_ppn is None or result_ppn == 100


def test_invalidate_covers_whole_range():
    tlb = make()
    for v in range(4):
        tlb.insert(v, 100 + v)
    assert tlb.invalidate(2)
    assert tlb.probe(0)[0] is None  # whole range dropped
    assert tlb.probe(2)[0] is None


def test_decompression_latency_added():
    tlb = make()
    assert tlb.probe_latency(1) == 1.0 + 1.0
    assert tlb.probe_latency(2) == 2.0 + 1.0


def test_eviction_counts_and_bounds():
    tlb = make(entries=4, assoc=4, max_ratio=1)  # degenerate: no ranges
    for v in range(0, 50, 2):  # non-contiguous
        tlb.insert(v, v)
    assert entries(tlb) <= 4


@given(st.lists(st.integers(min_value=0, max_value=200), min_size=1,
                max_size=200))
@settings(max_examples=50)
def test_property_translation_correctness_with_identity_map(vpns):
    """With contiguous VPN->PPN (delta 1000), any hit returns vpn+1000."""
    tlb = make(entries=32, assoc=4)
    for v in vpns:
        r_ppn, _ = tlb.probe(v)
        if r_ppn is not None:
            assert r_ppn == v + 1000
        else:
            tlb.insert(v, v + 1000)


@given(st.lists(st.integers(min_value=0, max_value=500), min_size=1,
                max_size=200))
@settings(max_examples=50)
def test_property_hardware_entries_bounded(vpns):
    tlb = make(entries=16, assoc=4)
    for v in vpns:
        tlb.insert(v, v + 1000)
    assert entries(tlb) <= 16
    # Compression reach can exceed entries but never ratio * entries.
    covered = sum(tlb.probe(v)[0] is not None for v in range(512))
    assert covered <= 16 * tlb.max_ratio
