"""Factories mapping a :class:`~repro.arch.config.GPUConfig` to the
concrete L1 TLB and sharing-register objects each SM gets."""

from __future__ import annotations

from typing import Optional

from ..arch.config import CompressionKind, GPUConfig, L1TLBMode, SharingPolicyKind
from ..engine.stats import StatGroup
from ..translation.compression import CompressedTLB, ContiguityTLB
from ..translation.tlb import DeadEntryFilter, SetAssociativeTLB
from .partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
from .set_sharing import (
    AllToAllSharingRegister,
    CounterSharingRegister,
    SharingRegister,
)


def build_sharing_register(config: GPUConfig) -> SharingRegister:
    """Sharing register per the configured policy variant."""
    capacity = config.max_tbs_per_sm
    if config.sharing_policy is SharingPolicyKind.ONE_BIT:
        return SharingRegister(capacity)
    if config.sharing_policy is SharingPolicyKind.COUNTER:
        return CounterSharingRegister(capacity, config.sharing_counter_threshold)
    if config.sharing_policy is SharingPolicyKind.ALL_TO_ALL:
        return AllToAllSharingRegister(capacity)
    raise ValueError(f"unknown sharing policy {config.sharing_policy!r}")


#: compression kind (``None``: compression off) -> entry format
_FORMATS = {
    None: SetAssociativeTLB,
    CompressionKind.STRIDE: CompressedTLB,
    CompressionKind.CONTIGUITY: ContiguityTLB,
}


#: L1 TLB mode -> (TB-id indexed, with a sharing register)
_MODES = {
    L1TLBMode.BASELINE: (False, False),
    L1TLBMode.PARTITIONED: (True, False),
    L1TLBMode.PARTITIONED_SHARING: (True, True),
}


def build_l1_tlb(
    config: GPUConfig, stats: Optional[StatGroup] = None, name: str = "l1_tlb"
) -> SetAssociativeTLB:
    """Construct one SM's L1 TLB: the entry format from the compression
    kind, the index policy and eviction hook from the mode, plus the
    configured replacement order and optional dead-entry filter.

    ``GPUConfig`` already refuses dead-entry + compression, so the
    filter only ever sees per-page entries.
    """
    fmt = _FORMATS[config.compression_kind if config.l1_tlb_compression else None]
    extra = {}
    granularity = 1
    if fmt is not SetAssociativeTLB:
        granularity = config.compression_max_ratio
        extra = dict(
            max_ratio=granularity,
            decompression_latency=config.compression_latency,
        )
    tbid_indexed, shared = _MODES[config.l1_tlb_mode]
    policy = hook = None
    if tbid_indexed:
        policy = TBIDIndexPolicy(
            config.l1_tlb_entries // config.l1_tlb_assoc,
            sharing=build_sharing_register(config) if shared else None,
            granularity=granularity,
        )
        hook = SetSharingSpill()
    dead_filter = None
    if config.l1_tlb_dead_entry:
        dead_filter = DeadEntryFilter(config.dead_entry_threshold)
    return fmt(
        config.l1_tlb_entries,
        config.l1_tlb_assoc,
        config.l1_tlb_latency,
        policy=policy,
        stats=stats,
        name=name,
        replacement=config.l1_tlb_replacement.value,
        hook=hook,
        dead_filter=dead_filter,
        **extra,
    )
