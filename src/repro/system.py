"""Turn-key machine assembly: ``GPUConfig`` → ready-to-run :class:`GPU`.

This is the main entry point of the library::

    from repro import build_gpu, BASELINE_CONFIG
    from repro.workloads import make_benchmark

    kernel = make_benchmark("bfs", scale="small")
    gpu = build_gpu(BASELINE_CONFIG)
    result = gpu.run(kernel)
    print(result.avg_l1_tlb_hit_rate, result.cycles)

``build_gpu`` wires the substrates (engine, translation, memory, arch)
to the paper's policies (core) according to the config.  The wiring is
one assembly, ``_assemble``, which the multi-tenant builder
(:func:`repro.tenancy.build_tenant_gpu`) calls with its own parts and
one dispatch lane per tenant.
"""

from __future__ import annotations

from functools import partial
from typing import Callable, Optional, Sequence, Tuple

from .arch.config import GPUConfig
from .arch.gpu import GPU, Lane
from .arch.sm import StreamingMultiprocessor
from .core.factory import build_l1_tlb
from .core.tb_scheduler import TBScheduler, TLBAwareScheduler, make_scheduler
from .engine.simulator import Simulator
from .memory.cache import Cache
from .memory.interconnect import Interconnect
from .memory.partition import PartitionedMemory
from .memory.subsystem import SMMemoryPath
from .translation.pagesize import geometry_for
from .translation.service import SharedTranslationService
from .translation.tlb import SetAssociativeTLB
from .translation.uvm import AllocationPolicy, UVMManager
from .translation.walker import WalkerPool


def build_gpu(
    config: GPUConfig,
    sim: Optional[Simulator] = None,
    record_tlb_trace: bool = False,
) -> GPU:
    """Assemble a full GPU system from ``config``.

    ``record_tlb_trace=True`` makes every SM log its (tb_index, vpn) L1
    TLB access stream — used by the reuse-distance characterization
    (Fig 5) at the cost of memory proportional to the trace.
    """
    if sim is None:
        sim = Simulator()
    uvm = UVMManager(
        geometry=geometry_for(config.page_size),
        policy=config.allocation_policy,
        far_fault_latency=config.far_fault_latency,
        gpu_memory_bytes=config.gpu_memory_bytes,
        # only mosaic records allocator counters; an unconditional group
        # would change every config's stats dump (golden identity)
        stats=(
            sim.stats.group("uvm")
            if config.allocation_policy is AllocationPolicy.MOSAIC
            else None
        ),
    )
    scheduler = make_scheduler(config.tb_scheduler, config.num_sms)
    gpu = _assemble(
        config,
        sim,
        record_tlb_trace,
        walked=uvm,
        address_spaces=((uvm, 0),),
        l2_tlb=partial(
            SetAssociativeTLB,
            config.l2_tlb_entries,
            config.l2_tlb_assoc,
            config.l2_tlb_latency,
        ),
        l1_tlb=partial(build_l1_tlb, config),
        memory=PartitionedMemory,
        lanes=[(range(config.num_sms), scheduler)],
    )
    if sim.sanitizer is not None and uvm.mosaic is not None:
        from .sanitizer import MosaicChecker

        sim.sanitizer.register(MosaicChecker(uvm))
    return gpu


def _assemble(
    config: GPUConfig,
    sim: Simulator,
    record_tlb_trace: bool,
    *,
    walked,
    address_spaces: Sequence[Tuple[UVMManager, int]],
    l2_tlb: Callable[..., SetAssociativeTLB],
    l1_tlb: Callable[..., SetAssociativeTLB],
    memory: Callable[..., PartitionedMemory],
    lanes: Sequence[Tuple[range, TBScheduler]],
) -> GPU:
    """Wire the machine every builder shares around the parts that differ.

    ``walked`` is what the walkers walk (a UVM or a router over
    several); ``address_spaces`` pairs each UVM with the VPN tag its
    local pages carry in the TLBs, so an eviction shoots down exactly its
    own translations.  ``l2_tlb`` and ``l1_tlb`` are called with the
    ``stats`` group and ``name`` of each TLB, and ``memory`` with the
    partitioned-memory geometry.  ``lanes`` pairs the SM ids of each
    dispatch lane with the TB scheduler that places its TBs; lanes may
    share a scheduler.  Stats groups, tracer lanes and checkers are
    created in one fixed order: stats dumps and trace bytes depend on it.
    """
    geometry = geometry_for(config.page_size)
    tracer = sim.tracer
    if tracer.enabled:
        # Register the fixed lanes up front so the viewer's lane order is
        # stable regardless of which component emits first.
        tracer.track("kernel")
        tracer.track("scheduler")
        tracer.track("L2 TLB")
        for walker_id in range(config.num_walkers):
            tracer.track(f"walker{walker_id}")
    clock = lambda: sim.queue.now  # noqa: E731 — cycle clock for untimed parts

    # Shared translation machinery (Fig 1 right-hand side).
    walkers = WalkerPool(
        walked,
        num_walkers=config.num_walkers,
        walk_latency=config.walk_latency,
        stats=sim.stats.group("walkers"),
    )
    l2 = l2_tlb(stats=sim.stats.group("l2_tlb"), name="l2_tlb")
    if tracer.enabled:
        # before the translation service caches the TLB's probe/insert
        l2.bind_tracer(tracer, clock, tracer.track("L2 TLB"))
    translation = SharedTranslationService(
        sim, l2, walkers, port_interval=config.l2_tlb_port_interval
    )
    if tracer.enabled:
        walkers.bind_tracer(
            tracer,
            tuple(
                tracer.track(f"walker{walker_id}")
                for walker_id in range(config.num_walkers)
            ),
        )

    # Shared data-memory system.
    interconnect = Interconnect(
        config.num_sms,
        traversal_latency=config.noc_latency,
        injection_interval=config.noc_injection_interval,
        stats=sim.stats.group("interconnect"),
    )
    partitions = memory(
        num_partitions=config.num_partitions,
        line_bytes=config.line_bytes,
        registry=sim.stats,
        l2_slice_bytes=config.l2_slice_bytes,
        l2_associativity=config.l2_cache_assoc,
        l2_latency=config.l2_cache_latency,
        dram_latency=config.dram_latency,
        dram_interval=config.dram_interval,
    )

    # Per-SM private structures.
    sms = []
    for sm_id in range(config.num_sms):
        l1 = l1_tlb(
            stats=sim.stats.group(f"sm{sm_id}_l1tlb"), name=f"sm{sm_id}_l1tlb"
        )
        if tracer.enabled:
            l1.bind_tracer(tracer, clock, tracer.track(f"SM{sm_id} L1 TLB"))
        l1_cache = Cache(
            config.l1_cache_bytes,
            config.l1_cache_assoc,
            config.line_bytes,
            stats=sim.stats.group(f"sm{sm_id}_l1cache"),
            name=f"sm{sm_id}_l1cache",
        )
        memory_path = SMMemoryPath(
            sim,
            sm_id,
            l1_cache,
            interconnect,
            partitions,
            l1_latency=config.l1_cache_latency,
            stats=sim.stats.group(f"sm{sm_id}_mem"),
        )
        sms.append(
            StreamingMultiprocessor(
                sim,
                sm_id,
                config,
                geometry,
                l1,
                translation,
                memory_path,
                record_tlb_trace=record_tlb_trace,
            )
        )

    if config.gpu_memory_bytes is not None:
        # TLB shootdown on page eviction: the victim's translation must
        # leave every TLB level before the page migrates to the host.
        def _make_shootdown(tag: int):
            def _shootdown(local_vpn: int) -> None:
                vpn = tag | local_vpn
                l2.invalidate(vpn)
                for sm in sms:
                    sm.l1_tlb.invalidate(vpn)

            return _shootdown

        for uvm, tag in address_spaces:
            uvm.invalidate_hook = _make_shootdown(tag)

    schedulers = list({id(s): s for _, s in lanes}.values())
    for scheduler in schedulers:
        scheduler.bind_telemetry(tracer, clock)
    if sim.sampler is not None:
        # occupancy is state, not a counter — sample it via a probe
        sim.sampler.add_probe(
            "resident_tbs", lambda: sum(len(sm.resident) for sm in sms)
        )
    gpu = GPU(
        sim, config, geometry, sms,
        [Lane([sms[i] for i in ids], scheduler) for ids, scheduler in lanes],
        l2, walkers, partitions,
    )
    if sim.sanitizer is not None:
        _register_checkers(sim, sms, l2, walkers, translation, schedulers)
    return gpu


def _register_checkers(sim, sms, l2_tlb, walkers, translation, schedulers) -> None:
    """Attach the sanitizer's component checkers to a built machine."""
    from .sanitizer import (
        DeadEntryChecker,
        LifecycleChecker,
        PartitionChecker,
        QueueChecker,
        StatusTableChecker,
        TLBChecker,
        WalkerChecker,
    )

    san = sim.sanitizer
    san.register(QueueChecker(sim.queue))
    san.register(TLBChecker(l2_tlb, registry=sim.stats))
    for sm in sms:
        san.register(TLBChecker(sm.l1_tlb, registry=sim.stats))
        if hasattr(sm.l1_tlb.policy, "sets_for"):
            # TB-id-partitioned TLB (with or without a sharing register)
            san.register(PartitionChecker(sm.l1_tlb))
        if sm.l1_tlb.dead_filter is not None:
            san.register(DeadEntryChecker(sm.l1_tlb))
    san.register(WalkerChecker(walkers, translation))
    san.register(LifecycleChecker(sms).bind(san))
    for scheduler in schedulers:
        if isinstance(scheduler, TLBAwareScheduler):
            san.register(StatusTableChecker(scheduler))
