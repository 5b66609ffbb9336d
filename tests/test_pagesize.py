"""Tests for page-size support and fragmentation accounting."""

from hypothesis import given, settings, strategies as st

from repro.translation.address import PAGE_2M, PAGE_4K
from repro.translation.pagesize import (
    FragmentationReport,
    fragmentation_from_addresses,
    geometry_for,
)


def test_geometry_for_reuses_shared_instances():
    assert geometry_for(PAGE_4K).page_size == PAGE_4K
    assert geometry_for(PAGE_2M).page_size == PAGE_2M
    assert geometry_for(8192).page_size == 8192


def test_dense_region_has_high_utilization():
    addrs = range(0, PAGE_2M, PAGE_4K)  # touch every 4K page of one 2M
    report = fragmentation_from_addresses(addrs)
    assert report.huge_pages_committed == 1
    assert report.utilization == 1.0
    assert report.committed_bytes == report.touched_bytes


def test_sparse_touches_waste_huge_pages():
    addrs = [i * PAGE_2M for i in range(8)]  # one 4K touch per 2M page
    report = fragmentation_from_addresses(addrs)
    assert report.huge_pages_committed == 8
    assert report.touched_small_pages == 8
    assert report.utilization == PAGE_4K / PAGE_2M
    assert report.committed_bytes - report.touched_bytes == 8 * (
        PAGE_2M - PAGE_4K
    )


def test_empty_report():
    report = FragmentationReport(0, 0)
    assert report.utilization == 1.0


@given(st.sets(st.integers(min_value=0, max_value=1 << 32), min_size=1,
               max_size=200))
@settings(max_examples=40)
def test_property_utilization_bounds(addresses):
    report = fragmentation_from_addresses(addresses)
    assert 0.0 < report.utilization <= 1.0
    assert report.committed_bytes >= report.touched_bytes
    # A 2M page holds 512 4K pages.
    assert report.touched_small_pages <= report.huge_pages_committed * 512
