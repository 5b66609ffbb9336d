"""Named machine configurations used across the experiments.

Every configuration is a small variation of the paper's Table III
baseline (:data:`repro.arch.config.BASELINE_CONFIG`):

==================  ====================================================
name                meaning
==================  ====================================================
baseline            Table III: RR scheduler, VPN-indexed 64-entry L1 TLB
l1_256              baseline with a 256-entry L1 TLB (Fig 2)
sched               + TLB-thrashing-aware TB scheduling (Fig 11 "sched")
partition           sched + TB-id TLB partitioning, no sharing
partition_sharing   sched + partitioning + dynamic adjacent-set sharing
compression         baseline + PACT'20 stride-compressed L1 TLB (Fig 12)
comp_ours           compression + scheduling + partitioning + sharing
huge_baseline       baseline on 2 MB pages (§V large-page study)
huge_ours           partition_sharing on 2 MB pages
dead_entry          zoo: dead-entry fill prediction + bypass
contiguity          zoo: subregion-contiguity large-reach entries
mosaic              zoo: Mosaic allocation + contiguity entries
==================  ====================================================

The zoo rows are *resolved from spec strings* against
:data:`COMPONENTS`, not hand-built: that table is the single source of
truth for what each mechanism toggles.

A *spec* is a comma-separated list of ``dimension=component`` tokens,
e.g. ``tlb=partitioned_sharing,compress=contiguity,sched=tlb_aware``.
Each dimension is one axis of the translation machinery; each component
is a summary plus the ``GPUConfig`` field overrides that select it.
:func:`resolve_spec` applies the chosen components' overrides to the
paper baseline, so the empty spec (all defaults) is ``BASELINE_CONFIG``
itself — the identity ``repro check``'s ``registry-identity`` suite
enforces.  Every mistake in a spec — a malformed token, an unknown
dimension or component, a dimension assigned twice, a combination
``GPUConfig`` refuses — raises :class:`~repro.engine.errors.ConfigError`
naming the offending token, so the CLI exits with the config exit code.
"""

from __future__ import annotations

from typing import Any, Dict, List, Mapping, Tuple

from ..arch.config import (
    BASELINE_CONFIG,
    CompressionKind,
    GPUConfig,
    L1TLBMode,
    ReplacementKind,
    TBSchedulerKind,
)
from ..engine.errors import ConfigError
from ..translation.address import PAGE_2M
from ..translation.uvm import AllocationPolicy

#: dimension -> component -> (summary, GPUConfig overrides).  The first
#: component of each dimension is its default and sets nothing; no two
#: dimensions set the same field.
COMPONENTS: Dict[str, Dict[str, Tuple[str, Mapping[str, Any]]]] = {
    "tlb": {
        "shared": ("VPN-indexed shared L1 TLB (paper baseline)", {}),
        "partitioned": (
            "TB-id-partitioned L1 TLB (paper §IV-B)",
            {"l1_tlb_mode": L1TLBMode.PARTITIONED},
        ),
        "partitioned_sharing": (
            "TB-id partitioning + dynamic adjacent-set sharing",
            {"l1_tlb_mode": L1TLBMode.PARTITIONED_SHARING},
        ),
    },
    "repl": {
        "lru": ("least-recently-used replacement", {}),
        "fifo": (
            "insertion-order (no-promote) replacement",
            {"l1_tlb_replacement": ReplacementKind.FIFO},
        ),
    },
    "compress": {
        "none": ("one translation per entry", {}),
        "stride": (
            "stride-range coalescing (PACT'20, Fig 12 comparator)",
            {
                "l1_tlb_compression": True,
                "compression_kind": CompressionKind.STRIDE,
            },
        ),
        "contiguity": (
            "subregion-contiguity bitmap entries (arXiv 2110.08613)",
            {
                "l1_tlb_compression": True,
                "compression_kind": CompressionKind.CONTIGUITY,
                "compression_max_ratio": 8,
            },
        ),
    },
    "pagesize": {
        "4k": ("4 KB pages, contiguous first-touch frames", {}),
        "4k_frag": (
            "4 KB pages on a fragmented heap (scattered frames)",
            {"allocation_policy": AllocationPolicy.FRAGMENTED},
        ),
        "2m": (
            "2 MB huge pages (paper §V large-page study)",
            {"page_size": PAGE_2M},
        ),
        "mosaic": (
            "Mosaic region-grouped 4 KB allocation (arXiv 1804.11265)",
            {"allocation_policy": AllocationPolicy.MOSAIC},
        ),
    },
    "sched": {
        "rr": ("round-robin TB scheduling (baseline)", {}),
        "tlb_aware": (
            "TLB-thrashing-aware TB scheduling (paper §IV-A)",
            {"tb_scheduler": TBSchedulerKind.TLB_AWARE},
        ),
    },
    "protect": {
        "none": ("no fill filtering", {}),
        "deadentry": (
            "dead-entry fill prediction + bypass (arXiv 2606.00486)",
            {"l1_tlb_dead_entry": True},
        ),
    },
}

#: the zoo ablation matrix: mechanism name -> spec.  The report iterates
#: this mapping — never per-mechanism code.
ZOO_SPECS: Dict[str, str] = {
    "zoo_baseline": "",
    "zoo_dead_entry": "protect=deadentry",
    "zoo_contiguity": "compress=contiguity",
    "zoo_frag": "pagesize=4k_frag,compress=contiguity",
    "zoo_mosaic": "pagesize=mosaic,compress=contiguity",
}


def resolve_spec(spec: str) -> GPUConfig:
    """Resolve a spec into a ``GPUConfig`` (see the module docstring).

    The empty spec returns ``BASELINE_CONFIG`` itself, not a copy.
    """
    chosen: Dict[str, str] = {}
    for raw in spec.split(","):
        token = raw.strip()
        if not token:
            continue
        name, sep, value = token.partition("=")
        name, value = name.strip(), value.strip()
        if not sep or not name or not value:
            raise ConfigError(
                f"malformed token {token!r}: expected "
                f"'dimension=component'",
                field=token,
            )
        if name not in COMPONENTS:
            raise ConfigError(
                f"unknown dimension in {token!r}; dimensions are "
                f"{sorted(COMPONENTS)}",
                field=token,
            )
        if value not in COMPONENTS[name]:
            raise ConfigError(
                f"unknown component in {token!r}; {name!r} offers "
                f"{sorted(COMPONENTS[name])}",
                field=token,
            )
        if name in chosen:
            raise ConfigError(
                f"dimension {name!r} assigned twice "
                f"({name}={chosen[name]} then {token!r})",
                field=token,
            )
        chosen[name] = value
    overrides: Dict[str, Any] = {}
    # GPUConfig field -> the token that set it
    owners: Dict[str, str] = {}
    for name, value in chosen.items():
        for fname, setting in COMPONENTS[name][value][1].items():
            overrides[fname] = setting
            owners[fname] = f"{name}={value}"
    if not overrides:
        return BASELINE_CONFIG
    try:
        return BASELINE_CONFIG.replace(**overrides)
    except ConfigError as exc:
        # GPUConfig validation speaks in field names, the user typed tokens
        token = owners.get(exc.field, spec)
        raise ConfigError(f"{token!r}: {exc}", field=token) from exc


def describe_components() -> List[str]:
    """One ``dimension=component  summary`` line per row, for ``repro list``."""
    lines: List[str] = []
    for dim, table in COMPONENTS.items():
        for i, (name, (summary, _)) in enumerate(table.items()):
            default = " (default)" if i == 0 else ""
            lines.append(f"{dim + '=' + name:<28s} {summary}{default}")
    return lines


BASELINE = BASELINE_CONFIG

L1_256 = BASELINE.replace(l1_tlb_entries=256)

SCHED = BASELINE.replace(tb_scheduler=TBSchedulerKind.TLB_AWARE)

PARTITION = SCHED.replace(l1_tlb_mode=L1TLBMode.PARTITIONED)

PARTITION_SHARING = SCHED.replace(l1_tlb_mode=L1TLBMode.PARTITIONED_SHARING)

COMPRESSION = BASELINE.replace(l1_tlb_compression=True)

COMP_OURS = PARTITION_SHARING.replace(l1_tlb_compression=True)

HUGE_BASELINE = BASELINE.replace(page_size=PAGE_2M)

HUGE_OURS = PARTITION_SHARING.replace(page_size=PAGE_2M)

DEAD_ENTRY = resolve_spec("protect=deadentry")

CONTIGUITY = resolve_spec("compress=contiguity")

MOSAIC = resolve_spec("pagesize=mosaic,compress=contiguity")

CONFIGS: Dict[str, GPUConfig] = {
    "baseline": BASELINE,
    "l1_256": L1_256,
    "sched": SCHED,
    "partition": PARTITION,
    "partition_sharing": PARTITION_SHARING,
    "compression": COMPRESSION,
    "comp_ours": COMP_OURS,
    "huge_baseline": HUGE_BASELINE,
    "huge_ours": HUGE_OURS,
    "dead_entry": DEAD_ENTRY,
    "contiguity": CONTIGUITY,
    "mosaic": MOSAIC,
}


def get_config(name: str) -> GPUConfig:
    try:
        return CONFIGS[name]
    except KeyError:
        raise ValueError(
            f"unknown config {name!r}; choose from {sorted(CONFIGS)}"
        ) from None
