"""Cross-model equivalence properties between TLB variants.

These pin down the design's degenerate cases: a partitioned TLB whose
single resident TB owns every set makes the same hit/miss decisions as
the baseline VPN-indexed TLB, and a compressed TLB with ratio 1 behaves
like an uncompressed one.  Regressions in the index-policy or storage
hooks show up here first.
"""

from hypothesis import example, given, settings, strategies as st

from repro.core.partitioned_tlb import TBIDIndexPolicy
from repro.translation.compression import CompressedTLB
from repro.translation.tlb import SetAssociativeTLB

access_streams = st.lists(
    st.integers(min_value=0, max_value=2000), min_size=1, max_size=400
)


def run_stream(tlb, vpns, tb_id=None):
    outcomes = []
    for vpn in vpns:
        result_ppn, _ = tlb.probe(vpn, tb_id)
        if result_ppn is None:
            tlb.insert(vpn, vpn + 1, tb_id)
        outcomes.append(result_ppn is not None)
    return outcomes


@given(access_streams)
@settings(max_examples=40)
def test_partitioned_with_occupancy_one_matches_baseline(vpns):
    """One TB owning all 16 sets spreads by vpn%16 — exactly the baseline
    indexing — so hit/miss sequences must be identical."""
    baseline = SetAssociativeTLB(64, 4, 1.0)
    partitioned = SetAssociativeTLB(64, 4, 1.0, policy=TBIDIndexPolicy(16))
    partitioned.configure_occupancy(1)
    assert run_stream(baseline, vpns) == run_stream(partitioned, vpns, tb_id=0)


@given(access_streams)
@settings(max_examples=40)
def test_compressed_ratio_one_matches_uncompressed(vpns):
    """With max_ratio=1 no coalescing is possible: the compressed TLB
    must make the same hit/miss decisions as the plain one."""
    plain = SetAssociativeTLB(64, 4, 1.0)
    compressed = CompressedTLB(64, 4, 1.0, max_ratio=1)
    assert run_stream(plain, vpns) == run_stream(compressed, vpns)


#: Hypothesis found this stream against the old claim that compression
#: never loses a hit: the plain TLB indexes by page, so 58 lands in set 10
#: and set 8 keeps 56 (1 hit); the compressed TLB indexes by 8-page
#: region, all five pages share set 7 and 56 is evicted (0 hits)
NON_MONOTONE_STREAM = [56, 58, 184, 312, 568, 56]
REGION_PAGES = 8


@st.composite
def region_runs(draw):
    """A contiguous run of <= REGION_PAGES pages inside one aligned
    region, in any insertion order."""
    region = draw(st.integers(min_value=0, max_value=2000 // REGION_PAGES))
    length = draw(st.integers(min_value=1, max_value=REGION_PAGES))
    start = draw(st.integers(min_value=0, max_value=REGION_PAGES - length))
    first = region * REGION_PAGES + start
    return draw(st.permutations(range(first, first + length)))


@example(prefix=NON_MONOTONE_STREAM, run=[56, 57, 58, 59])
@given(access_streams, region_runs())
@settings(max_examples=40)
def test_compression_reach_holds_a_contiguous_run(prefix, run):
    """Compression's reach claim: whatever came before, a contiguous run
    of at most ``max_ratio`` pages inserted into one region all hit
    afterwards (its ranges fit one set's ways).  Compression does *not*
    promise more hits than a plain TLB on every stream: it indexes sets
    by region, not page (see the counterexample test below)."""
    compressed = CompressedTLB(64, 4, 1.0, max_ratio=REGION_PAGES)
    run_stream(compressed, prefix)
    run_stream(compressed, run)
    assert all(compressed.probe(vpn)[0] is not None for vpn in run)


def test_compression_can_lose_hits_to_region_indexing():
    """The documented non-monotonicity, pinned on the stream above."""
    plain = SetAssociativeTLB(64, 4, 1.0)
    compressed = CompressedTLB(64, 4, 1.0, max_ratio=REGION_PAGES)
    assert sum(run_stream(plain, NON_MONOTONE_STREAM)) == 1
    assert sum(run_stream(compressed, NON_MONOTONE_STREAM)) == 0


@given(access_streams, st.integers(min_value=1, max_value=16))
@settings(max_examples=40)
def test_partitioned_occupancy_never_leaks_between_tbs(vpns, occupancy):
    """Whatever the occupancy, a TB never hits on a page only another TB
    inserted (sharing disabled)."""
    tlb = SetAssociativeTLB(64, 4, 1.0, policy=TBIDIndexPolicy(16))
    tlb.configure_occupancy(occupancy)
    run_stream(tlb, vpns, tb_id=0)
    other = occupancy  # a TB id in a different slot when occupancy < 16
    if occupancy < 16:
        fresh = SetAssociativeTLB(64, 4, 1.0, policy=TBIDIndexPolicy(16))
        fresh.configure_occupancy(occupancy)
        run_stream(fresh, vpns, tb_id=0)
        for vpn in set(vpns):
            assert not fresh.contains(vpn, tb_id=1 % occupancy) or occupancy == 1


def test_parallel_sweep_digest_matches_sequential():
    """Fixed-seed full-simulation digest: a plan executed on parallel
    supervised workers must produce byte-identical per-cell stats JSON
    to the same plan executed sequentially in-process — the end-to-end
    determinism contract the executor promises."""
    import json

    from repro.experiments.runner import ExperimentRunner, named_cell

    cells = [
        named_cell("bfs", "baseline"),
        named_cell("bfs", "partition"),
        named_cell("bfs", "partition_sharing"),
    ]

    def digest(parallel):
        runner = ExperimentRunner(scale="micro", seed=0, parallel=parallel)
        results = runner.execute(cells)
        runner.close()
        assert runner.cells_simulated == len(cells)
        return {
            f"{bench}:{tag}": json.dumps(result.to_dict(), sort_keys=True)
            for (bench, tag), result in results.items()
        }

    assert digest(1) == digest(3)
