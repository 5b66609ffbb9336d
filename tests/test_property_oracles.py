"""Property-based differential tests for the optimized hot paths.

The event queue (pooled list entries, batched drain) and the TLB index
paths (interned set tuples, slot caches) are written for speed.  These
tests pin the optimized implementations against deliberately naive
oracles — a plain ``heapq`` of tuples for the event queue, dict+list LRU
sets for the TLB, and a re-derivation from the paper's partitioning
definition for the TB-id slot cache — on randomized operation streams,
so any semantic drift introduced by a future optimization shows up as a
counterexample, not as a golden-file mystery.

Hypothesis drives the streams when available (it is in CI; see the
``ci`` profile registered in ``conftest.py``); otherwise a fixed set of
seeded ``random`` streams keeps the differential coverage alive.
"""

from __future__ import annotations

import heapq
import random
import weakref

import pytest

from repro.engine.event_queue import EventQueue
from repro.translation.tlb import SetAssociativeTLB
from repro.core.partitioned_tlb import TBIDIndexPolicy

try:
    from hypothesis import given, settings, strategies as st

    HAVE_HYPOTHESIS = True
except ImportError:  # pragma: no cover - hypothesis is present in CI
    HAVE_HYPOTHESIS = False

FALLBACK_SEEDS = range(20)


# --------------------------------------------------------------------- #
# Event queue vs plain-heapq oracle
# --------------------------------------------------------------------- #
class _Payload:
    """Event argument whose lifetime the oracle watches through a weakref."""

    __slots__ = ("seq", "value", "__weakref__")

    def __init__(self, seq, value):
        self.seq = seq
        self.value = value


class _Tally:
    _events_run = 0


def run_queue_ops(ops):
    """Drive an EventQueue and a naive oracle with one op stream.

    Ops: ``("push", delay_quarters, priority)`` (a closure posted with
    no arguments), ``("post", delay_quarters, priority, value)`` (one
    shared callback receiving a payload object as its argument, no
    closure) and ``("run", budget)`` (one :meth:`EventQueue.run_batch`
    call with a budget of 1..k, the production drain).  A popped event
    must drop its payload: every payload's weakref dies once its event
    ran.
    """
    q = EventQueue()
    ran = []
    payloads = {}  # seq -> (weakref to the posted payload, its value)
    oracle = []  # heap of (time, priority, seq)
    next_seq = 0
    now = 0.0

    def make_cb(seq):
        return lambda: ran.append(seq)

    def receive(payload):
        assert payload.value == payloads[payload.seq][1]
        ran.append(payload.seq)

    def assert_payload_freed(seq):
        if seq in payloads:
            assert payloads[seq][0]() is None, "popped entry kept its payload"

    for op in ops:
        if op[0] in ("push", "post"):
            t = now + op[1] * 0.25
            seq = next_seq
            next_seq += 1
            if op[0] == "push":
                q.post(t, make_cb(seq), priority=op[2])
            else:
                payload = _Payload(seq, op[3])
                payloads[seq] = (weakref.ref(payload), op[3])
                q.post(t, receive, payload, priority=op[2])
                del payload
            heapq.heappush(oracle, (t, op[2], seq))
        else:  # run
            budget = op[1]
            expected = [
                heapq.heappop(oracle) for _ in range(min(budget, len(oracle)))
            ]
            mark = len(ran)
            assert q.run_batch(budget) == len(expected)
            assert ran[mark:] == [seq for _t, _p, seq in expected], (
                "pop order diverged from oracle"
            )
            if expected:
                now = expected[-1][0]
            assert q.now == now
            for _t, _p, seq in expected:
                assert_payload_freed(seq)
        assert len(q) == len(oracle)
    # drain the rest in small batches through a tally: the full
    # remaining order must match the oracle and the tally must count it
    expected_tail = [seq for _t, _p, seq in sorted(oracle)]
    mark = len(ran)
    tally = _Tally()
    total = 0
    while True:
        n = q.run_batch(3, tally)
        total += n
        if n < 3:
            break
    assert total == tally._events_run == len(expected_tail)
    assert ran[mark:] == expected_tail
    if oracle:
        assert q.now == max(oracle)[0]
    assert len(q) == 0
    assert q.run_batch(3) == 0
    for seq in payloads:
        assert_payload_freed(seq)


QUEUE_MAX_BUDGET = 4


def _random_queue_ops(rng: random.Random, n: int = 150):
    ops = []
    for _ in range(n):
        r = rng.random()
        if r < 0.35:
            ops.append(("push", rng.randrange(0, 12), rng.randrange(-1, 2)))
        elif r < 0.7:
            ops.append(
                ("post", rng.randrange(0, 12), rng.randrange(-1, 2),
                 rng.randrange(0, 1000))
            )
        else:
            ops.append(("run", rng.randint(1, QUEUE_MAX_BUDGET)))
    return ops


if HAVE_HYPOTHESIS:
    queue_ops = st.lists(
        st.one_of(
            st.tuples(
                st.just("push"),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=-1, max_value=1),
            ),
            st.tuples(
                st.just("post"),
                st.integers(min_value=0, max_value=12),
                st.integers(min_value=-1, max_value=1),
                st.integers(min_value=0, max_value=999),
            ),
            st.tuples(
                st.just("run"),
                st.integers(min_value=1, max_value=QUEUE_MAX_BUDGET),
            ),
        ),
        max_size=150,
    )

    @given(queue_ops)
    @settings(max_examples=60, deadline=None)
    def test_event_queue_matches_heapq_oracle(ops):
        run_queue_ops(ops)

else:  # pragma: no cover - exercised only without hypothesis

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_event_queue_matches_heapq_oracle(seed):
        run_queue_ops(_random_queue_ops(random.Random(seed)))


# --------------------------------------------------------------------- #
# Set-associative TLB vs dict+list LRU oracle
# --------------------------------------------------------------------- #
def run_tlb_ops(num_sets, assoc, ops):
    """Drive the optimized TLB and a list-based LRU oracle in lockstep.

    Ops: ``("probe", vpn)`` / ``("insert", vpn)``; the PPN is a fixed
    function of the VPN so refreshes are observable.
    """
    tlb = SetAssociativeTLB(num_sets * assoc, assoc, lookup_latency=1.0)
    oracle = [[] for _ in range(num_sets)]  # each: [[vpn, ppn], ...] LRU-first
    hits = misses = evictions = 0
    for kind, vpn in ops:
        entries = oracle[vpn % num_sets]
        found = next((e for e in entries if e[0] == vpn), None)
        if kind == "probe":
            result_ppn, result_probed = tlb.probe(vpn)
            assert result_probed == 1
            if found is not None:
                hits += 1
                assert result_ppn == found[1]
                entries.remove(found)
                entries.append(found)
            else:
                misses += 1
                assert result_ppn is None
        else:
            ppn = vpn * 7 + 3
            evicted = tlb.insert(vpn, ppn)
            if found is not None:
                found[1] = ppn
                entries.remove(found)
                entries.append(found)
                assert evicted is None
            else:
                if len(entries) >= assoc:
                    victim = entries.pop(0)
                    evictions += 1
                    assert evicted == victim[0]
                else:
                    assert evicted is None
                entries.append([vpn, ppn])
    assert tlb.stats.counter("hits").value == hits
    assert tlb.stats.counter("misses").value == misses
    assert tlb.stats.counter("evictions").value == evictions
    for set_idx in range(num_sets):
        stored = [[vpn, ppn] for vpn, ppn in tlb.sets[set_idx].items()]
        assert stored == oracle[set_idx], f"set {set_idx} diverged (LRU order)"


def _random_tlb_ops(rng: random.Random, n: int = 200):
    # small VPN space so sets fill, evict, and refresh frequently
    return [
        (("probe", "insert")[rng.randrange(2)], rng.randrange(0, 64))
        for _ in range(n)
    ]


if HAVE_HYPOTHESIS:
    tlb_ops = st.lists(
        st.tuples(
            st.sampled_from(["probe", "insert"]),
            st.integers(min_value=0, max_value=63),
        ),
        max_size=200,
    )

    @given(
        st.sampled_from([1, 2, 4, 8]),
        st.sampled_from([1, 2, 4]),
        tlb_ops,
    )
    @settings(max_examples=60, deadline=None)
    def test_tlb_matches_lru_oracle(num_sets, assoc, ops):
        run_tlb_ops(num_sets, assoc, ops)

else:  # pragma: no cover

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_tlb_matches_lru_oracle(seed):
        rng = random.Random(seed)
        num_sets = rng.choice([1, 2, 4, 8])
        assoc = rng.choice([1, 2, 4])
        run_tlb_ops(num_sets, assoc, _random_tlb_ops(rng))


# --------------------------------------------------------------------- #
# TB-id slot cache vs the paper's partitioning definition
# --------------------------------------------------------------------- #
def check_tbid_policy(num_sets, occupancy, tb_id, vpn):
    """The precomputed slot cache must agree with §IV-B recomputed fresh:
    TB ``i`` owns sets ``[i*S//T, (i+1)*S//T)``; when ``T >= S`` each
    TB-id residue maps to one shared set."""
    policy = TBIDIndexPolicy(num_sets, occupancy=occupancy)
    if occupancy >= num_sets:
        expected_own = [tb_id % num_sets]
    else:
        bounds = [(i * num_sets) // occupancy for i in range(occupancy + 1)]
        slot = tb_id % occupancy
        expected_own = list(range(bounds[slot], bounds[slot + 1]))
    assert list(policy.sets_for(tb_id)) == expected_own
    assert list(policy.lookup_sets(vpn, tb_id)) == expected_own
    residue = (vpn // policy.granularity) % len(expected_own)
    preferred = expected_own[residue]
    assert list(policy.insert_sets(vpn, tb_id)) == (
        [preferred] + [s for s in expected_own if s != preferred]
    )
    if occupancy < num_sets:
        # every set owned by exactly one slot (no gaps, no overlap)
        owned = [s for slot in range(occupancy) for s in policy.sets_for(slot)]
        assert sorted(owned) == list(range(num_sets))


if HAVE_HYPOTHESIS:

    @given(
        st.integers(min_value=1, max_value=32),
        st.integers(min_value=1, max_value=48),
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=1 << 20),
    )
    @settings(max_examples=120, deadline=None)
    def test_tbid_slot_cache_matches_definition(num_sets, occupancy, tb_id, vpn):
        check_tbid_policy(num_sets, occupancy, tb_id, vpn)

else:  # pragma: no cover

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_tbid_slot_cache_matches_definition(seed):
        rng = random.Random(seed)
        for _ in range(30):
            check_tbid_policy(
                rng.randrange(1, 33),
                rng.randrange(1, 49),
                rng.randrange(0, 64),
                rng.randrange(0, 1 << 20),
            )


def test_tbid_policy_rejects_missing_or_negative_tb():
    policy = TBIDIndexPolicy(8, occupancy=4)
    with pytest.raises(ValueError):
        policy.lookup_sets(0, None)
    with pytest.raises(ValueError):
        policy.lookup_sets(0, -1)
    with pytest.raises(ValueError):
        policy.insert_sets(0, -3)
    with pytest.raises(ValueError):
        policy.sets_for(-1)


# --------------------------------------------------------------------- #
# Dead-entry filter vs omniscient reuse oracle (ISSUE 10)
# --------------------------------------------------------------------- #
def run_dead_filter_ops(num_sets, assoc, threshold, ops):
    """Drive a dead-filtered TLB and a from-the-spec reuse oracle.

    The oracle tracks, per VPN, the consecutive count of fills that died
    (were dropped from the TLB) without a single hit; once the streak
    reaches ``threshold`` the next fill must be bypassed.  ``None``
    means never bypass — the filter must then be pure observation.
    """
    from repro.translation.tlb import DeadEntryFilter

    tlb = SetAssociativeTLB(
        num_sets * assoc, assoc, lookup_latency=1.0,
        dead_filter=DeadEntryFilter(threshold),
    )
    oracle = [[] for _ in range(num_sets)]  # [[vpn, ppn], ...] LRU-first
    pending = set()   # fills not yet proven live
    streak = {}       # vpn -> consecutive dead fills
    hits = misses = evictions = dead = bypassed = 0
    for kind, vpn in ops:
        entries = oracle[vpn % num_sets]
        found = next((e for e in entries if e[0] == vpn), None)
        if kind == "probe":
            result_ppn, _ = tlb.probe(vpn)
            if found is not None:
                hits += 1
                assert result_ppn == found[1]
                entries.remove(found)
                entries.append(found)
                if vpn in pending:  # reuse observed: the fill was live
                    pending.discard(vpn)
                    streak.pop(vpn, None)
            else:
                misses += 1
                assert result_ppn is None
        else:
            ppn = vpn * 7 + 3
            evicted = tlb.insert(vpn, ppn)
            if found is not None:  # refresh path: no fill event
                found[1] = ppn
                entries.remove(found)
                entries.append(found)
                assert evicted is None
                continue
            if threshold is not None and streak.get(vpn, 0) >= threshold:
                bypassed += 1  # predicted dead: no state may change
                assert evicted is None
                continue
            if len(entries) >= assoc:
                victim = entries.pop(0)
                evictions += 1
                assert evicted == victim[0]
                if victim[0] in pending:  # died without a hit
                    pending.discard(victim[0])
                    streak[victim[0]] = streak.get(victim[0], 0) + 1
                    dead += 1
            else:
                assert evicted is None
            entries.append([vpn, ppn])
            pending.add(vpn)
    filt = tlb.dead_filter
    assert tlb.stats.counter("hits").value == hits
    assert tlb.stats.counter("misses").value == misses
    assert tlb.stats.counter("evictions").value == evictions
    assert filt.dead_fills == dead
    assert filt.bypassed_fills == bypassed
    if threshold is None:
        assert bypassed == 0  # threshold=∞ must degenerate to no-bypass
    assert filt._pending == pending
    assert filt._streak == {v: s for v, s in streak.items() if s > 0}
    for set_idx in range(num_sets):
        stored = [[vpn, ppn] for vpn, ppn in tlb.sets[set_idx].items()]
        assert stored == oracle[set_idx], f"set {set_idx} diverged"


DEAD_THRESHOLDS = [1, 2, 3, None]

if HAVE_HYPOTHESIS:

    @given(
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from(DEAD_THRESHOLDS),
        tlb_ops,
    )
    @settings(max_examples=60, deadline=None)
    def test_dead_filter_matches_reuse_oracle(num_sets, assoc, threshold, ops):
        run_dead_filter_ops(num_sets, assoc, threshold, ops)

else:  # pragma: no cover

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_dead_filter_matches_reuse_oracle(seed):
        rng = random.Random(seed)
        run_dead_filter_ops(
            rng.choice([1, 2, 4]),
            rng.choice([1, 2, 4]),
            rng.choice(DEAD_THRESHOLDS),
            _random_tlb_ops(rng),
        )


def test_dead_filter_threshold_none_is_pure_observation():
    """threshold=None: filtered TLB behaves bit-for-bit like a stock one."""
    from repro.translation.tlb import DeadEntryFilter

    rng = random.Random(7)
    stock = SetAssociativeTLB(16, 4, lookup_latency=1.0)
    filtered = SetAssociativeTLB(
        16, 4, lookup_latency=1.0, dead_filter=DeadEntryFilter(None)
    )
    for _ in range(5000):
        vpn = rng.randrange(0, 96)
        if rng.random() < 0.5:
            a, b = stock.probe(vpn), filtered.probe(vpn)
            assert a[0] == b[0]
        else:
            assert stock.insert(vpn, vpn + 1) == filtered.insert(vpn, vpn + 1)
    assert stock.hits == filtered.hits
    assert stock.misses == filtered.misses
    assert [dict(s) for s in stock.sets] == [dict(s) for s in filtered.sets]
    assert filtered.dead_filter.bypassed_fills == 0


# --------------------------------------------------------------------- #
# Contiguity TLB vs per-page dict model, at every run length (ISSUE 10)
# --------------------------------------------------------------------- #
def run_contiguity_ops(num_sets, assoc, max_ratio, ops):
    """Drive ContiguityTLB and a naive region-entry model in lockstep.

    Ops: ``("probe", vpn, _)`` / ``("insert", vpn, contiguous)`` where
    ``contiguous`` picks an offset-preserving frame (coalescible into
    the region anchor) or a scattered one (forces re-anchoring).
    """
    from repro.translation.compression import ContiguityTLB

    tlb = ContiguityTLB(
        num_sets * assoc, assoc, lookup_latency=1.0,
        max_ratio=max_ratio, decompression_latency=0.0,
    )
    # each set: [[region_base, anchor_ppn, bitmap], ...] LRU-first
    oracle = [[] for _ in range(num_sets)]
    hits = misses = evictions = coalesced = 0

    def index(vpn):
        return (vpn // max_ratio) % num_sets

    for kind, vpn, contiguous in ops:
        base, offset = vpn - vpn % max_ratio, vpn % max_ratio
        entries = oracle[index(vpn)]
        found = next((e for e in entries if e[0] == base), None)
        if kind == "probe":
            result_ppn, _ = tlb.probe(vpn)
            if found is not None and (found[2] >> offset) & 1:
                hits += 1
                assert result_ppn == found[1] + offset
                entries.remove(found)
                entries.append(found)
            else:
                misses += 1
                assert result_ppn is None
        else:
            ppn = (vpn + 1000) if contiguous else (vpn * 11 + 5)
            evicted = tlb.insert(vpn, ppn)
            if found is not None:
                if found[1] + offset == ppn:
                    if not (found[2] >> offset) & 1:
                        found[2] |= 1 << offset
                        coalesced += 1
                    entries.remove(found)
                    entries.append(found)
                    assert evicted is None
                    continue
                # mis-anchored frame: the stale entry is dropped and the
                # fill re-anchors fresh (never evicting — a slot just freed)
                entries.remove(found)
                entries.append([base, ppn - offset, 1 << offset])
                assert evicted is None
                continue
            if len(entries) >= assoc:
                victim = entries.pop(0)
                evictions += 1
                assert evicted == victim[0]
            else:
                assert evicted is None
            entries.append([base, ppn - offset, 1 << offset])
    assert tlb.stats.counter("hits").value == hits
    assert tlb.stats.counter("misses").value == misses
    assert tlb.stats.counter("evictions").value == evictions
    assert tlb.stats.counter("coalesced").value == coalesced
    assert tlb.pages_covered == sum(
        bin(e[2]).count("1") for s in oracle for e in s
    )
    for set_idx in range(num_sets):
        stored = [
            [b, anchor, bitmap]
            for b, (anchor, bitmap) in tlb.sets[set_idx].items()
        ]
        assert stored == oracle[set_idx], f"set {set_idx} diverged"


def _random_contiguity_ops(rng: random.Random, n: int = 250):
    return [
        (
            ("probe", "insert")[rng.randrange(2)],
            rng.randrange(0, 64),
            rng.random() < 0.8,
        )
        for _ in range(n)
    ]


CONTIGUITY_RUNS = [1, 2, 3, 4, 8]

if HAVE_HYPOTHESIS:
    contiguity_ops = st.lists(
        st.tuples(
            st.sampled_from(["probe", "insert"]),
            st.integers(min_value=0, max_value=63),
            st.booleans(),
        ),
        max_size=250,
    )

    @given(
        st.sampled_from([1, 2, 4]),
        st.sampled_from([1, 2, 4]),
        st.sampled_from(CONTIGUITY_RUNS),
        contiguity_ops,
    )
    @settings(max_examples=60, deadline=None)
    def test_contiguity_matches_dict_model(num_sets, assoc, max_ratio, ops):
        run_contiguity_ops(num_sets, assoc, max_ratio, ops)

else:  # pragma: no cover

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    @pytest.mark.parametrize("max_ratio", CONTIGUITY_RUNS)
    def test_contiguity_matches_dict_model(seed, max_ratio):
        rng = random.Random(seed)
        run_contiguity_ops(
            rng.choice([1, 2, 4]),
            rng.choice([1, 2, 4]),
            max_ratio,
            _random_contiguity_ops(rng),
        )


def test_contiguity_run_of_one_degenerates_to_stock():
    """max_ratio=1: every region is a single page, so the contiguity TLB
    must be observation-equivalent to the stock set-associative TLB."""
    from repro.translation.compression import ContiguityTLB

    rng = random.Random(11)
    stock = SetAssociativeTLB(32, 4, lookup_latency=1.0)
    contig = ContiguityTLB(
        32, 4, lookup_latency=1.0, max_ratio=1, decompression_latency=0.0
    )
    for _ in range(8000):
        vpn = rng.randrange(0, 128)
        r = rng.random()
        if r < 0.48:
            a, b = stock.probe(vpn), contig.probe(vpn)
            assert a[0] == b[0]
        elif r < 0.96:
            ppn = vpn * 13 + 1 if r < 0.9 else vpn * 17 + 2  # incl. remaps
            assert stock.insert(vpn, ppn) == contig.insert(vpn, ppn)
        else:
            assert stock.invalidate(vpn) == contig.invalidate(vpn)
    assert stock.hits == contig.hits
    assert stock.misses == contig.misses
    assert stock.stats.counter("evictions").value == \
        contig.stats.counter("evictions").value
    assert [list(s) for s in stock.sets] == [list(s) for s in contig.sets]
    assert contig.pages_covered == stock.occupancy


# --------------------------------------------------------------------- #
# Mosaic allocation vs fragmentation-free reference (ISSUE 10)
# --------------------------------------------------------------------- #
def run_mosaic_ops(touches, capacity_pages=64):
    """Touch the same VPN stream through a Mosaic UVM and a CONTIGUOUS
    reference.  Placement is the *only* thing allowed to differ: faults,
    evictions, and the resident set must match in lockstep, and mosaic
    frames must be injective and offset-preserving within regions."""
    from repro.translation.address import PAGE_2M, PAGE_4K, PageGeometry
    from repro.translation.uvm import AllocationPolicy, UVMManager

    geometry = PageGeometry(PAGE_4K)
    ppr = PAGE_2M // PAGE_4K
    cap = capacity_pages * PAGE_4K
    mosaic = UVMManager(
        geometry=geometry, policy=AllocationPolicy.MOSAIC,
        far_fault_latency=100.0, gpu_memory_bytes=cap,
    )
    reference = UVMManager(
        geometry=geometry, policy=AllocationPolicy.CONTIGUOUS,
        far_fault_latency=100.0, gpu_memory_bytes=cap,
    )
    placements = {}
    for vpn in touches:
        ppn_m, lat_m = mosaic.ensure_mapped(vpn)
        ppn_r, lat_r = reference.ensure_mapped(vpn)
        assert lat_m == lat_r, "fault behaviour diverged from reference"
        assert ppn_m % ppr == vpn % ppr, "mosaic broke region offsets"
        placements[vpn] = ppn_m
        assert mosaic.fault_count == reference.fault_count
        assert mosaic.eviction_count == reference.eviction_count
        assert mosaic.resident_pages == reference.resident_pages
    resident = {v for v in placements if mosaic.is_resident(v)}
    assert resident == {v for v in placements if reference.is_resident(v)}
    live = {v: mosaic.ensure_mapped(v)[0] for v in sorted(resident)}
    assert len(set(live.values())) == len(live), "mosaic frames collided"
    regions = {}
    for vpn, ppn in live.items():
        # all pages of one virtual region sit in one physical region
        assert regions.setdefault(vpn // ppr, ppn // ppr) == ppn // ppr
    report = mosaic.fragmentation_report()
    assert report.huge_pages_committed == len(set(regions.values()))
    assert 0.0 < report.utilization <= 1.0


def _random_touches(rng: random.Random, n: int = 400):
    # a few regions' worth of VPNs, with enough pressure to force
    # eviction churn (capacity 64 pages vs up to 3*512 VPNs)
    return [rng.randrange(0, 3 * 512) for _ in range(n)]


if HAVE_HYPOTHESIS:

    @given(st.lists(st.integers(min_value=0, max_value=3 * 512 - 1),
                    min_size=1, max_size=400))
    @settings(max_examples=60, deadline=None)
    def test_mosaic_matches_contiguous_reference(touches):
        run_mosaic_ops(touches)

else:  # pragma: no cover

    @pytest.mark.parametrize("seed", FALLBACK_SEEDS)
    def test_mosaic_matches_contiguous_reference(seed):
        run_mosaic_ops(_random_touches(random.Random(seed)))
