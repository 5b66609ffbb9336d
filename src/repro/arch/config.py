"""GPU configuration (paper Table III) and experiment knobs.

Every simulated run is fully described by a :class:`GPUConfig`.  The
defaults reproduce the paper's baseline; experiment configurations in
:mod:`repro.experiments.configs` are small ``replace()``-style variations
(larger L1 TLB, TB-id partitioning, set sharing, compression, 2 MB pages).
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

from ..engine.errors import ConfigError
from ..translation.address import KB, PAGE_2M, PAGE_4K
from ..translation.uvm import AllocationPolicy


def _is_pow2(value: int) -> bool:
    return value > 0 and (value & (value - 1)) == 0


class TBSchedulerKind(enum.Enum):
    """Which TB scheduler the GPU uses (paper §IV-A)."""

    ROUND_ROBIN = "rr"
    TLB_AWARE = "tlb_aware"


class WarpSchedulerKind(enum.Enum):
    """Warp issue arbitration (GTO is the paper's baseline; the
    translation-aware variant is the conclusion's future-work
    direction, built here as an extension)."""

    GTO = "gto"
    TRANSLATION_AWARE = "translation_aware"


class L1TLBMode(enum.Enum):
    """L1 TLB organization (paper §IV-B)."""

    #: VPN-indexed set-associative TLB (baseline).
    BASELINE = "baseline"
    #: TB-id-indexed partitioning, no set sharing ("Partition" bars).
    PARTITIONED = "partitioned"
    #: TB-id partitioning + dynamic adjacent-set sharing ("Partition+Sharing").
    PARTITIONED_SHARING = "partitioned_sharing"


class SharingPolicyKind(enum.Enum):
    """Set-sharing variants (1-bit flag is the paper's design; the others
    are the discussion/future-work variants built for ablations)."""

    ONE_BIT = "one_bit"
    COUNTER = "counter"
    ALL_TO_ALL = "all_to_all"


class ReplacementKind(enum.Enum):
    """Within-set replacement order for every TLB level."""

    LRU = "lru"
    FIFO = "fifo"


class CompressionKind(enum.Enum):
    """Which large-reach entry format ``l1_tlb_compression`` selects."""

    #: stride-1 range coalescing (Fig 12 comparator; base+length entries).
    STRIDE = "stride"
    #: subregion-contiguity bitmap entries (arXiv 2110.08613): one entry
    #: per aligned region, anchor PPN + validity bitmap, so any subset of
    #: a region's pages shares an entry as long as offsets are preserved.
    CONTIGUITY = "contiguity"


@dataclass(frozen=True)
class GPUConfig:
    """Full machine + policy configuration.  Defaults = paper Table III."""

    # --- GPU organization -------------------------------------------- #
    num_sms: int = 16
    clock_mhz: int = 1400
    warp_size: int = 32
    max_threads_per_sm: int = 2048
    max_warps_per_sm: int = 64
    max_tbs_per_sm: int = 16
    shared_mem_per_sm: int = 48 * KB
    register_file_per_sm: int = 64 * KB

    # --- Data caches -------------------------------------------------- #
    line_bytes: int = 128
    l1_cache_bytes: int = 16 * KB
    l1_cache_assoc: int = 4
    l1_cache_latency: float = 1.0
    l2_slice_bytes: int = 128 * KB
    l2_cache_assoc: int = 8
    num_partitions: int = 12          # 12 x 128 KB = 1536 KB total
    l2_cache_latency: float = 30.0

    # --- TLBs and translation ----------------------------------------- #
    l1_tlb_entries: int = 64
    l1_tlb_assoc: int = 4
    l1_tlb_latency: float = 1.0
    l2_tlb_entries: int = 512
    l2_tlb_assoc: int = 16
    l2_tlb_latency: float = 10.0
    #: initiation interval of the shared L2 TLB's lookup port: L1 misses
    #: from all SMs contend for it, so a config that misses the L1 more
    #: pays queueing here as well as lookup latency.
    l2_tlb_port_interval: float = 2.0
    num_walkers: int = 8
    walk_latency: float = 500.0
    page_size: int = PAGE_4K
    #: Extra latency of a first-touch (demand-paging) walk.  The default
    #: models the paper's steady state — data already migrated to the GPU,
    #: translation cost dominated by TLB misses and walks; set >0 to study
    #: cold-start behaviour.
    far_fault_latency: float = 0.0
    #: GPU device-memory capacity for the oversubscription study (None =
    #: unlimited, the steady-state default).  When the footprint exceeds
    #: it, LRU pages migrate back to the host and re-touches far-fault,
    #: with TLB shootdown of the victim's translations.
    gpu_memory_bytes: "int | None" = None
    allocation_policy: AllocationPolicy = AllocationPolicy.CONTIGUOUS

    # --- Interconnect / DRAM ------------------------------------------ #
    noc_latency: float = 20.0
    noc_injection_interval: float = 1.0
    dram_latency: float = 220.0
    dram_interval: float = 4.0

    # --- Issue/pipeline ------------------------------------------------ #
    issue_interval: float = 1.0       # cycles between warp instruction issues
    #: TB scheduler dispatch cadence: freed slots are (re)filled on this
    #: period, so completions that cluster give the scheduler a choice of
    #: SMs — the window the TLB-aware policy exploits.
    tb_dispatch_interval: float = 100.0

    # --- Policies (the paper's proposal) ------------------------------- #
    tb_scheduler: TBSchedulerKind = TBSchedulerKind.ROUND_ROBIN
    warp_scheduler: WarpSchedulerKind = WarpSchedulerKind.GTO
    l1_tlb_mode: L1TLBMode = L1TLBMode.BASELINE
    sharing_policy: SharingPolicyKind = SharingPolicyKind.ONE_BIT
    sharing_counter_threshold: int = 4   # only for SharingPolicyKind.COUNTER

    # --- TLB compression (Fig 12 comparator) --------------------------- #
    l1_tlb_compression: bool = False
    #: pages per compressed range (the comparator relies on contiguous
    #: stride-1 mappings; GPU heaps rarely sustain long runs)
    compression_max_ratio: int = 2
    #: (de)compression sits on the L1 lookup critical path (paper §V)
    compression_latency: float = 2.0
    #: entry format used when compression is enabled (zoo mechanism 2)
    compression_kind: CompressionKind = CompressionKind.STRIDE

    # --- Translation-mechanism zoo ------------------------------------- #
    #: within-set replacement order for the TLBs
    l1_tlb_replacement: ReplacementKind = ReplacementKind.LRU
    #: dead-entry miss protection (arXiv 2606.00486): predict fills whose
    #: entry will die unused and bypass them instead of evicting a live one
    l1_tlb_dead_entry: bool = False
    #: consecutive dead fills of a VPN before its fills bypass; None = an
    #: infinite threshold, i.e. the predictor observes but never bypasses
    dead_entry_threshold: "int | None" = 2

    def __post_init__(self) -> None:
        # Every check names the offending field so a sweep script (or a
        # supervised worker's JSON error line) can point at the exact knob.
        positive_fields = (
            "num_sms", "clock_mhz", "warp_size", "max_threads_per_sm",
            "max_warps_per_sm", "max_tbs_per_sm", "shared_mem_per_sm",
            "register_file_per_sm", "line_bytes", "l1_cache_bytes",
            "l1_cache_assoc", "l2_slice_bytes", "l2_cache_assoc",
            "num_partitions", "l1_tlb_entries", "l1_tlb_assoc",
            "l2_tlb_entries", "l2_tlb_assoc", "num_walkers", "page_size",
            "issue_interval", "tb_dispatch_interval",
            "noc_injection_interval", "dram_interval",
            "sharing_counter_threshold", "compression_max_ratio",
        )
        for name in positive_fields:
            if getattr(self, name) <= 0:
                raise ConfigError(
                    f"{name} must be positive (got {getattr(self, name)!r})",
                    field=name,
                )
        nonnegative_fields = (
            "l1_cache_latency", "l2_cache_latency", "l1_tlb_latency",
            "l2_tlb_latency", "l2_tlb_port_interval", "walk_latency",
            "far_fault_latency", "noc_latency", "dram_latency",
            "compression_latency",
        )
        for name in nonnegative_fields:
            if getattr(self, name) < 0:
                raise ConfigError(
                    f"{name} must be non-negative "
                    f"(got {getattr(self, name)!r})",
                    field=name,
                )
        if self.gpu_memory_bytes is not None and self.gpu_memory_bytes <= 0:
            raise ConfigError(
                f"gpu_memory_bytes must be positive or None "
                f"(got {self.gpu_memory_bytes!r})",
                field="gpu_memory_bytes",
            )
        for entries, assoc, prefix in (
            (self.l1_tlb_entries, self.l1_tlb_assoc, "l1_tlb"),
            (self.l2_tlb_entries, self.l2_tlb_assoc, "l2_tlb"),
        ):
            if entries % assoc != 0:
                raise ConfigError(
                    f"{prefix}_entries ({entries}) must divide by "
                    f"{prefix}_assoc ({assoc})",
                    field=f"{prefix}_entries",
                )
            if not _is_pow2(assoc):
                raise ConfigError(
                    f"{prefix}_assoc must be a power of two (got {assoc})",
                    field=f"{prefix}_assoc",
                )
            if not _is_pow2(entries // assoc):
                raise ConfigError(
                    f"{prefix} set count must be a power of two "
                    f"(got {entries // assoc} sets from {entries} entries "
                    f"x {assoc}-way)",
                    field=f"{prefix}_entries",
                )
        for name in ("page_size", "line_bytes"):
            if not _is_pow2(getattr(self, name)):
                raise ConfigError(
                    f"{name} must be a power of two "
                    f"(got {getattr(self, name)})",
                    field=name,
                )
        if self.max_threads_per_sm % self.warp_size != 0:
            raise ConfigError(
                f"max_threads_per_sm ({self.max_threads_per_sm}) must be a "
                f"multiple of warp_size ({self.warp_size})",
                field="max_threads_per_sm",
            )
        if self.dead_entry_threshold is not None \
                and self.dead_entry_threshold <= 0:
            raise ConfigError(
                f"dead_entry_threshold must be positive or None "
                f"(got {self.dead_entry_threshold!r})",
                field="dead_entry_threshold",
            )
        if self.l1_tlb_dead_entry and self.l1_tlb_compression:
            # A compressed entry aggregates many pages, so "this fill's
            # entry died unused" is ill-defined; refuse the combination
            # rather than silently mispredicting.
            raise ConfigError(
                "l1_tlb_dead_entry cannot be combined with "
                "l1_tlb_compression (dead-entry tracking is per page)",
                field="l1_tlb_dead_entry",
            )
        if self.allocation_policy is AllocationPolicy.MOSAIC \
                and self.page_size >= PAGE_2M:
            raise ConfigError(
                f"allocation_policy 'mosaic' groups base pages into 2 MB "
                f"regions, so page_size must be < {PAGE_2M} "
                f"(got {self.page_size})",
                field="allocation_policy",
            )
        if self.l1_tlb_mode is not L1TLBMode.BASELINE:
            sets = self.l1_tlb_entries // self.l1_tlb_assoc
            # TB partitions must tile the sets evenly in either direction:
            # S/T sets per TB when T <= S, or T/S TBs per set (paper
            # footnote 1) when partitions outnumber sets.
            if sets % self.max_tbs_per_sm and self.max_tbs_per_sm % sets:
                raise ConfigError(
                    f"max_tbs_per_sm ({self.max_tbs_per_sm}) TLB partitions "
                    f"do not divide the {sets} L1 TLB sets evenly",
                    field="max_tbs_per_sm",
                )

    def replace(self, **changes) -> "GPUConfig":
        """Functional update (alias for :func:`dataclasses.replace`)."""
        return dataclasses.replace(self, **changes)


#: Paper Table III baseline.
BASELINE_CONFIG = GPUConfig()
