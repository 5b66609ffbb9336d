"""Seeded randomized model checking for the TLB implementations.

A plain-dict reference model replays thousands of random probe /
insert / invalidate / flush operations against the real TLBs and must
agree op-for-op on hit/miss, returned PPN, sets probed, eviction
counts, and full final contents.  The reference reimplements the index
math from the paper's description (not from the implementation), so the
two disagree whenever either the storage or the policy drifts.

Configurations covered (satellite 3): shared VPN-indexed, shared with
granularity > 1 (the compressed TLB's hashed grouping), and TB-id
partitioned at several occupancies including the over-committed
``occupancy > num_sets`` modulo regime.  The zoo (ISSUE 10) extends the
matrix with FIFO replacement (no LRU promotion anywhere) and the
subregion-contiguity entry format, shared and TB-id partitioned.
"""

from collections import OrderedDict
from random import Random

import pytest

from repro.core.partitioned_tlb import TBIDIndexPolicy
from repro.translation.compression import ContiguityTLB
from repro.translation.tlb import SetAssociativeTLB, VPNIndexPolicy

NUM_ENTRIES = 64
ASSOC = 4
NUM_SETS = NUM_ENTRIES // ASSOC


class ReferenceTLB:
    """Plain-dict LRU reference with independently-derived index math.

    ``own_sets(tb)`` returns the probe-ordered set list for a TB;
    insertion prefers ``own[(vpn // granularity) % len(own)]`` (the
    VPN-spread the paper uses to spread a TB's pages over its sets).
    ``refresh_lru=False`` models FIFO replacement: entries keep their
    insertion order, neither a hit nor a value refresh promotes them.
    """

    def __init__(self, own_sets, granularity=1, refresh_lru=True):
        self.sets = [OrderedDict() for _ in range(NUM_SETS)]
        self.own_sets = own_sets
        self.granularity = granularity
        self.refresh_lru = refresh_lru
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def probe(self, vpn, tb):
        probed = 0
        for set_idx in self.own_sets(vpn, tb):
            probed += 1
            if vpn in self.sets[set_idx]:
                if self.refresh_lru:
                    self.sets[set_idx].move_to_end(vpn)
                self.hits += 1
                return True, self.sets[set_idx][vpn], probed
        self.misses += 1
        return False, None, max(probed, 1)

    def insert(self, vpn, ppn, tb):
        own = list(self.own_sets(vpn, tb))
        preferred = own[(vpn // self.granularity) % len(own)] if len(
            own
        ) > 1 else own[0]
        ordered = [preferred] + [s for s in own if s != preferred]
        for set_idx in ordered:
            if vpn in self.sets[set_idx]:
                self.sets[set_idx][vpn] = ppn
                if self.refresh_lru:
                    self.sets[set_idx].move_to_end(vpn)
                return
        target = self.sets[ordered[0]]
        if len(target) >= ASSOC:
            target.popitem(last=False)
            self.evictions += 1
        target[vpn] = ppn

    def invalidate(self, vpn):
        for entry_set in self.sets:
            entry_set.pop(vpn, None)

    def flush(self):
        for entry_set in self.sets:
            entry_set.clear()

    def contents(self):
        return [sorted(s.items()) for s in self.sets]


class ContiguityReference:
    """Region-entry reference for the contiguity TLBs (ISSUE 10).

    Entries are ``region_base -> (anchor_ppn, bitmap)``; a page hits
    iff its region entry holds its offset bit and translates to
    ``anchor + offset``.  A fill whose frame disagrees with the anchor
    drops the stale entry and re-anchors fresh — the spec's remap rule,
    derived here from arXiv 2110.08613, not from the implementation.
    """

    def __init__(self, own_sets, max_ratio, refresh_lru=True):
        self.sets = [OrderedDict() for _ in range(NUM_SETS)]
        self.own_sets = own_sets
        self.max_ratio = max_ratio
        self.refresh_lru = refresh_lru
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def _split(self, vpn):
        offset = vpn % self.max_ratio
        return vpn - offset, offset

    def probe(self, vpn, tb):
        base, offset = self._split(vpn)
        probed = 0
        for set_idx in self.own_sets(vpn, tb):
            probed += 1
            entry = self.sets[set_idx].get(base)
            if entry is not None and (entry[1] >> offset) & 1:
                if self.refresh_lru:
                    self.sets[set_idx].move_to_end(base)
                self.hits += 1
                return True, entry[0] + offset, probed
        self.misses += 1
        return False, None, max(probed, 1)

    def insert(self, vpn, ppn, tb):
        base, offset = self._split(vpn)
        own = list(self.own_sets(vpn, tb))
        preferred = own[(vpn // self.max_ratio) % len(own)] if len(
            own
        ) > 1 else own[0]
        ordered = [preferred] + [s for s in own if s != preferred]
        for set_idx in ordered:
            entry = self.sets[set_idx].get(base)
            if entry is None:
                continue
            anchor, bitmap = entry
            if anchor + offset == ppn:
                self.sets[set_idx][base] = (anchor, bitmap | (1 << offset))
                if self.refresh_lru:
                    self.sets[set_idx].move_to_end(base)
                return
            # stale anchor: drop the entry, fall through to a fresh fill
            del self.sets[set_idx][base]
        target = self.sets[ordered[0]]
        if len(target) >= ASSOC:
            target.popitem(last=False)
            self.evictions += 1
        target[base] = (ppn - offset, 1 << offset)

    def invalidate(self, vpn):
        base, offset = self._split(vpn)
        bit = 1 << offset
        for entry_set in self.sets:
            entry = entry_set.get(base)
            if entry is not None and entry[1] & bit:
                remaining = entry[1] & ~bit
                if remaining:
                    entry_set[base] = (entry[0], remaining)
                else:
                    del entry_set[base]

    def flush(self):
        for entry_set in self.sets:
            entry_set.clear()

    def contents(self):
        return [sorted(s.items()) for s in self.sets]


def shared_sets(granularity):
    """Baseline VPN indexing: one home set per VPN group."""
    def own(vpn, tb):
        return ((vpn // granularity) % NUM_SETS,)
    return own


def partitioned_sets(occupancy):
    """TB-id tiling from the paper: TB i owns [i*S//T, (i+1)*S//T)."""
    def own(vpn, tb):
        if occupancy >= NUM_SETS:
            return (tb % NUM_SETS,)
        slot = tb % occupancy
        return range(
            (slot * NUM_SETS) // occupancy,
            ((slot + 1) * NUM_SETS) // occupancy,
        )
    return own


def make_shared(granularity=1, replacement="lru"):
    return SetAssociativeTLB(
        NUM_ENTRIES, ASSOC, 1.0,
        policy=VPNIndexPolicy(NUM_SETS, granularity=granularity),
        replacement=replacement,
    )


def make_partitioned(occupancy):
    return SetAssociativeTLB(
        NUM_ENTRIES, ASSOC, 1.0,
        policy=TBIDIndexPolicy(NUM_SETS, occupancy=occupancy),
    )


CASES = [
    pytest.param(lambda: make_shared(1), shared_sets(1), 1, id="shared-g1"),
    pytest.param(lambda: make_shared(4), shared_sets(4), 1, id="shared-g4"),
    pytest.param(lambda: make_shared(8), shared_sets(8), 1, id="shared-g8"),
    pytest.param(
        lambda: make_partitioned(1), partitioned_sets(1), 1, id="part-occ1"
    ),
    pytest.param(
        lambda: make_partitioned(3), partitioned_sets(3), 1, id="part-occ3"
    ),
    pytest.param(
        lambda: make_partitioned(16), partitioned_sets(16), 1, id="part-occ16"
    ),
    pytest.param(
        lambda: make_partitioned(40), partitioned_sets(40), 1,
        id="part-overcommit",
    ),
]


def drive_model_check(tlb, ref, seed, ppn_for=None):
    """5000-op random lockstep between a real TLB and its reference."""
    rng = Random(seed)
    if ppn_for is None:
        ppn_for = lambda vpn, rng: rng.randrange(10_000)  # noqa: E731
    for step in range(5_000):
        roll = rng.random()
        if roll < 0.06:
            vpn = rng.randrange(300)
            tlb.invalidate(vpn)
            ref.invalidate(vpn)
            continue
        if roll < 0.065:
            tlb.flush()
            ref.flush()
            continue
        vpn = rng.randrange(300)
        tb = rng.randrange(48)
        got = tlb.probe(vpn, tb_id=tb)
        want_hit, want_ppn, want_probed = ref.probe(vpn, tb)
        assert (got.hit, got.ppn, got.sets_probed) == (
            want_hit, want_ppn, want_probed
        ), f"step {step}: probe(vpn={vpn}, tb={tb}) diverged"
        if not got.hit:
            ppn = ppn_for(vpn, rng)
            tlb.insert(vpn, ppn, tb_id=tb)
            ref.insert(vpn, ppn, tb)
        if step % 500 == 0:
            assert [
                sorted(s.items()) for s in tlb.sets
            ] == ref.contents(), f"step {step}: contents diverged"
    assert tlb.hits == ref.hits
    assert tlb.misses == ref.misses
    assert tlb.stats.counter_value("evictions") == ref.evictions
    assert [sorted(s.items()) for s in tlb.sets] == ref.contents()


@pytest.mark.parametrize("make_tlb,own_sets,granularity", CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_random_ops_match_reference(make_tlb, own_sets, granularity, seed):
    tlb = make_tlb()
    # the reference spreads inserts with the *policy's* granularity
    policy_granularity = getattr(tlb.policy, "granularity", 1)
    ref = ReferenceTLB(own_sets, granularity=policy_granularity)
    drive_model_check(tlb, ref, seed)


def make_contiguity(max_ratio):
    return ContiguityTLB(
        NUM_ENTRIES, ASSOC, 1.0, max_ratio=max_ratio,
        decompression_latency=0.0,
    )


def make_contiguity_partitioned(occupancy, max_ratio, replacement="lru"):
    return ContiguityTLB(
        NUM_ENTRIES, ASSOC, 1.0, max_ratio=max_ratio,
        decompression_latency=0.0,
        policy=TBIDIndexPolicy(
            NUM_SETS, occupancy=occupancy, granularity=max_ratio
        ),
        replacement=replacement,
    )


#: zoo cases: (make_tlb, make_ref) pairs added by ISSUE 10
ZOO_CASES = [
    pytest.param(
        lambda: make_shared(1, replacement="fifo"),
        lambda: ReferenceTLB(shared_sets(1), refresh_lru=False),
        id="fifo-shared",
    ),
    pytest.param(
        lambda: SetAssociativeTLB(
            NUM_ENTRIES, ASSOC, 1.0,
            policy=TBIDIndexPolicy(NUM_SETS, occupancy=3),
            replacement="fifo",
        ),
        lambda: ReferenceTLB(partitioned_sets(3), refresh_lru=False),
        id="fifo-part-occ3",
    ),
    pytest.param(
        lambda: make_contiguity(8),
        lambda: ContiguityReference(shared_sets(8), 8),
        id="contig-shared-r8",
    ),
    pytest.param(
        lambda: make_contiguity(4),
        lambda: ContiguityReference(shared_sets(4), 4),
        id="contig-shared-r4",
    ),
    pytest.param(
        lambda: make_contiguity_partitioned(3, 8),
        lambda: ContiguityReference(partitioned_sets(3), 8),
        id="contig-part-occ3",
    ),
    pytest.param(
        lambda: make_contiguity_partitioned(40, 8),
        lambda: ContiguityReference(partitioned_sets(40), 8),
        id="contig-part-overcommit",
    ),
    pytest.param(
        lambda: make_contiguity_partitioned(3, 8, replacement="fifo"),
        lambda: ContiguityReference(
            partitioned_sets(3), 8, refresh_lru=False
        ),
        id="contig-fifo-part-occ3",
    ),
]


def _zoo_ppn(vpn, rng):
    # half the fills are region-anchored (base+4096, coalescible into
    # the anchor), half scattered (forces the re-anchor/remap path)
    return vpn + 4096 if rng.random() < 0.5 else rng.randrange(10_000)


@pytest.mark.parametrize("make_tlb,make_ref", ZOO_CASES)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_zoo_random_ops_match_reference(make_tlb, make_ref, seed):
    drive_model_check(make_tlb(), make_ref(), seed, ppn_for=_zoo_ppn)


@pytest.mark.parametrize("occupancy", [1, 3, 5, 16])
def test_reoccupancy_remaps_consistently(occupancy):
    """configure_occupancy mid-stream must keep probe/insert coherent:
    after remapping, a fresh insert is always found by a fresh probe."""
    tlb = make_partitioned(16)
    rng = Random(7)
    for vpn in range(64):
        tlb.insert(vpn, vpn, tb_id=rng.randrange(16))
    tlb.configure_occupancy(occupancy)
    for step in range(500):
        vpn = 1_000 + step
        tb = rng.randrange(32)
        tlb.insert(vpn, vpn * 3, tb_id=tb)
        result = tlb.probe(vpn, tb_id=tb)
        assert result.hit and result.ppn == vpn * 3
