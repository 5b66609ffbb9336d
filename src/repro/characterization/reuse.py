"""Translation-reuse intensity at TB granularity (paper §III-C, Eq. 1).

For two TBs c1, c2 the intensity is::

    R(c1, c2) = |{x in T_c1 : page(x) in uniq(T_c1) ∩ uniq(T_c2)}| / |T_c1|

i.e. the fraction of c1's translation requests that fall on pages both
TBs touch.  Intra-TB intensity uses c1 = c2: the fraction of requests to
pages the TB touches more than once ("reused at least once").

Results are reported as the paper's five 20%-wide bins b1..b5 over the
percentage of TBs (intra) or TB pairs (inter).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Dict, List

from ..arch.kernel import Kernel
from ..translation.address import PAGE_4K

NUM_BINS = 5


@dataclass
class ReuseBins:
    """Fractions of TBs (or TB pairs) per intensity bin b1..b5."""

    fractions: List[float]

    def __post_init__(self) -> None:
        if len(self.fractions) != NUM_BINS:
            raise ValueError(f"expected {NUM_BINS} bins")

    @property
    def b1(self) -> float:
        return self.fractions[0]

    @property
    def b5(self) -> float:
        return self.fractions[4]


def bin_index(intensity: float) -> int:
    """Map an intensity in [0, 1] to bin 0..4 (b1..b5)."""
    if intensity < 0.0 or intensity > 1.0:
        raise ValueError(f"intensity {intensity} outside [0, 1]")
    idx = int(intensity * NUM_BINS)
    return min(idx, NUM_BINS - 1)


def tb_page_profiles(
    kernel: Kernel, page_size: int = PAGE_4K
) -> List[Counter]:
    """Per-TB multiset of touched pages (page -> access count)."""
    profiles = []
    for tb in kernel.tbs:
        counts: Counter = Counter()
        for addr in tb.addresses():
            counts[addr // page_size] += 1
        profiles.append(counts)
    return profiles


def intra_tb_intensity(profile: Counter) -> float:
    """Fraction of the TB's accesses to pages it accesses >1 time."""
    total = sum(profile.values())
    if total == 0:
        return 0.0
    reused = sum(count for count in profile.values() if count > 1)
    return reused / total


def inter_tb_intensity(profile1: Counter, profile2: Counter) -> float:
    """Eq. 1: fraction of c1's accesses to pages shared with c2."""
    total = sum(profile1.values())
    if total == 0:
        return 0.0
    if len(profile2) < len(profile1):
        shared_pages = [p for p in profile2 if p in profile1]
    else:
        shared_pages = [p for p in profile1 if p in profile2]
    shared = sum(profile1[p] for p in shared_pages)
    return shared / total


def intra_tb_bins(kernel: Kernel, page_size: int = PAGE_4K) -> ReuseBins:
    """Fig 4: distribution of TBs over intra-TB reuse-intensity bins."""
    profiles = tb_page_profiles(kernel, page_size)
    counts = [0] * NUM_BINS
    for profile in profiles:
        counts[bin_index(intra_tb_intensity(profile))] += 1
    total = len(profiles)
    return ReuseBins([c / total for c in counts] if total else [0.0] * NUM_BINS)


def inter_tb_bins(
    kernel: Kernel,
    page_size: int = PAGE_4K,
    max_pairs: int = 20000,
) -> ReuseBins:
    """Fig 3: distribution of TB pairs over inter-TB intensity bins.

    All ordered pairs (c1, c2), c1 != c2, are evaluated exhaustively as
    in the paper; ``max_pairs`` caps the work for very large kernels by
    striding uniformly through the pair space.
    """
    profiles = tb_page_profiles(kernel, page_size)
    n = len(profiles)
    if n < 2:
        return ReuseBins([1.0, 0.0, 0.0, 0.0, 0.0])
    total_pairs = n * (n - 1)
    stride = max(1, total_pairs // max_pairs)
    counts = [0] * NUM_BINS
    sampled = 0
    pair_idx = 0
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            if pair_idx % stride == 0:
                counts[bin_index(inter_tb_intensity(profiles[i], profiles[j]))] += 1
                sampled += 1
            pair_idx += 1
    return ReuseBins(
        [c / sampled for c in counts] if sampled else [0.0] * NUM_BINS
    )


def reuse_summary(kernel: Kernel, page_size: int = PAGE_4K) -> Dict[str, ReuseBins]:
    """Both characterizations for one kernel."""
    return {
        "inter": inter_tb_bins(kernel, page_size),
        "intra": intra_tb_bins(kernel, page_size),
    }
