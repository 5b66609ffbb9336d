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
:class:`SpillReference` adds the dynamic set-sharing spill with each of
the three sharing registers, at occupancies below and above the set
count, with TB finishes and re-occupancy in the op stream.
"""

from collections import OrderedDict
from random import Random

import pytest

from repro.core.partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
from repro.core.set_sharing import (
    AllToAllSharingRegister,
    CounterSharingRegister,
    SharingRegister,
)
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
        got_ppn, got_probed = tlb.probe(vpn, tb_id=tb)
        want_hit, want_ppn, want_probed = ref.probe(vpn, tb)
        assert (got_ppn is not None, got_ppn, got_probed) == (
            want_hit, want_ppn, want_probed
        ), f"step {step}: probe(vpn={vpn}, tb={tb}) diverged"
        if got_ppn is None:
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
        result_ppn, _ = tlb.probe(vpn, tb_id=tb)
        assert result_ppn == vpn * 3


class SpillReference:
    """Set-sharing reference (paper §IV-B, Fig 9) with its own register.

    ``kind`` is ``"one-bit"`` (a flag per TB), ``"counter"`` (the flag
    rises after ``threshold`` spills) or ``"all-to-all"`` (tracked
    partner sets).  A fill that evicts from a TB's full set spills the
    victim into the first free slot among the target TBs' sets — the
    adjacent TB, or every other resident TB in id order for all-to-all —
    and a flagged TB's lookups also probe its partners' sets.  Derived
    from the paper's description and the ablation variants it names,
    not from the implementation.
    """

    def __init__(self, kind, num_sets, capacity, occupancy, threshold=2):
        self.kind = kind
        self.num_sets = num_sets
        self.capacity = capacity
        self.threshold = threshold
        self.sets = [OrderedDict() for _ in range(num_sets)]
        self.hits = self.misses = self.evictions = 0
        self.sets_probed = self.spills = self.spill_attempts = 0
        self.configure_occupancy(occupancy)

    def configure_occupancy(self, occupancy):
        self.occupancy = max(1, occupancy)
        self.reg_occupancy = min(self.occupancy, self.capacity)
        self.flags = [False] * self.capacity
        self.counts = [0] * self.capacity
        self.partner_sets = [set() for _ in range(self.capacity)]

    def own(self, tb):
        if self.occupancy >= self.num_sets:
            return [tb % self.num_sets]
        slot = tb % self.occupancy
        return list(range(
            (slot * self.num_sets) // self.occupancy,
            ((slot + 1) * self.num_sets) // self.occupancy,
        ))

    def partners(self, tb):
        if not self.flags[tb]:
            return []
        if self.kind == "all-to-all":
            return sorted(self.partner_sets[tb])
        return [(tb + 1) % self.reg_occupancy]

    def _shared(self, tb):
        return [s for p in self.partners(tb) for s in self.own(p)]

    def probe(self, vpn, tb):
        probed = 0
        for set_idx in self.own(tb) + self._shared(tb):
            probed += 1
            if vpn in self.sets[set_idx]:
                self.sets[set_idx].move_to_end(vpn)
                self.hits += 1
                self.sets_probed += probed
                return self.sets[set_idx][vpn], probed
        self.misses += 1
        self.sets_probed += probed
        return None, probed

    def insert(self, vpn, ppn, tb):
        own = self.own(tb)
        preferred = own[vpn % len(own)]
        ordered = [preferred] + [s for s in own if s != preferred]
        for set_idx in ordered + self._shared(tb):
            if vpn in self.sets[set_idx]:
                self.sets[set_idx][vpn] = ppn
                self.sets[set_idx].move_to_end(vpn)
                return None
        target = self.sets[preferred]
        victim = None
        if len(target) >= ASSOC:
            victim = target.popitem(last=False)
            self.evictions += 1
        target[vpn] = ppn
        if victim is None:
            return None
        self.spill_attempts += 1
        if self.kind == "all-to-all":
            targets = [t for t in range(self.reg_occupancy) if t != tb]
        else:
            targets = [(tb + 1) % self.reg_occupancy]
        for other in targets:
            if other == tb:
                continue
            for set_idx in self.own(other):
                if len(self.sets[set_idx]) < ASSOC:
                    self.sets[set_idx][victim[0]] = victim[1]
                    self._record(tb, other)
                    self.spills += 1
                    return victim[0]
        return victim[0]

    def _record(self, tb, other):
        if self.kind == "counter":
            self.counts[tb] = min(self.counts[tb] + 1, self.threshold)
            if self.counts[tb] >= self.threshold:
                self.flags[tb] = True
        else:
            self.partner_sets[tb].add(other)
            self.flags[tb] = True

    def on_tb_finished(self, tb):
        if self.kind == "all-to-all":
            self.partner_sets[tb].clear()
            self.flags[tb] = False
            for i, partners in enumerate(self.partner_sets):
                partners.discard(tb)
                if not partners:
                    self.flags[i] = False
            return
        prev = (tb - 1) % self.reg_occupancy
        for i in (tb, prev):
            self.flags[i] = False
            self.counts[i] = 0

    def invalidate(self, vpn):
        for entry_set in self.sets:
            entry_set.pop(vpn, None)

    def flush(self):
        for entry_set in self.sets:
            entry_set.clear()


SPILL_REGISTERS = {
    "one-bit": lambda capacity: SharingRegister(capacity),
    "counter": lambda capacity: CounterSharingRegister(capacity, threshold=2),
    "all-to-all": lambda capacity: AllToAllSharingRegister(capacity),
}


def drive_spill_check(kind, num_entries, capacity, occupancy, seed):
    """4000 random ops in lockstep on a sharing TLB and its reference:
    probe (and fill on a miss), invalidate, flush, TB finish and the
    occasional re-occupancy; every result, counter and set (in its
    replacement order) must agree."""
    num_sets = num_entries // ASSOC
    sharing = SPILL_REGISTERS[kind](capacity)
    tlb = SetAssociativeTLB(
        num_entries, ASSOC, 1.0,
        policy=TBIDIndexPolicy(num_sets, sharing=sharing),
        hook=SetSharingSpill(),
    )
    tlb.configure_occupancy(occupancy)
    ref = SpillReference(kind, num_sets, capacity, occupancy)
    rng = Random(seed)
    for step in range(4_000):
        roll = rng.random()
        tbs = min(ref.occupancy, capacity)
        if roll < 0.03:
            vpn = rng.randrange(200)
            tlb.invalidate(vpn)
            ref.invalidate(vpn)
        elif roll < 0.033:
            tlb.flush()
            ref.flush()
        elif roll < 0.06:
            tb = rng.randrange(tbs)
            tlb.on_tb_finished(tb)
            ref.on_tb_finished(tb)
        elif roll < 0.062:
            occ = rng.choice([occupancy, max(1, occupancy // 2), occupancy + 3])
            tlb.configure_occupancy(occ)
            ref.configure_occupancy(occ)
        else:
            vpn = rng.randrange(200)
            tb = rng.randrange(tbs)
            got_ppn, got_probed = tlb.probe(vpn, tb_id=tb)
            want_ppn, want_probed = ref.probe(vpn, tb)
            assert (got_ppn, got_probed) == (want_ppn, want_probed), (
                f"step {step}: probe(vpn={vpn}, tb={tb}) diverged"
            )
            if want_ppn is None:
                ppn = rng.randrange(10_000)
                assert tlb.insert(vpn, ppn, tb_id=tb) == ref.insert(
                    vpn, ppn, tb
                ), f"step {step}: insert(vpn={vpn}, tb={tb}) diverged"
        if step % 250 == 0:
            assert [list(s.items()) for s in tlb.sets] == [
                list(s.items()) for s in ref.sets
            ], f"step {step}: contents diverged"
            assert [sharing.is_sharing(t) for t in range(capacity)] == ref.flags
    counters = {
        name: tlb.stats.counter_value(name)
        for name in (
            "hits", "misses", "evictions", "sets_probed",
            "sharing_spills", "sharing_spill_attempts",
        )
    }
    assert counters == {
        "hits": ref.hits, "misses": ref.misses, "evictions": ref.evictions,
        "sets_probed": ref.sets_probed, "sharing_spills": ref.spills,
        "sharing_spill_attempts": ref.spill_attempts,
    }
    assert ref.spills > 0
    assert [list(s.items()) for s in tlb.sets] == [
        list(s.items()) for s in ref.sets
    ]


@pytest.mark.parametrize("kind", sorted(SPILL_REGISTERS))
@pytest.mark.parametrize(
    "num_entries,occupancy",
    [
        pytest.param(64, 4, id="occ-below-sets"),
        pytest.param(32, 12, id="occ-above-sets"),
    ],
)
@pytest.mark.parametrize("seed", [0, 1])
def test_set_sharing_spill_matches_reference(kind, num_entries, occupancy, seed):
    drive_spill_check(kind, num_entries, 16, occupancy, seed)
