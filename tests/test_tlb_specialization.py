"""The TLB's specialized probe/insert pair is the general path, faster.

``SetAssociativeTLB`` chooses its ``probe`` and ``insert`` once, from
its parts: per-page LRU TLBs with no filter, no probe observer and no
tracer get closures with the set walk, fill, eviction and spill inlined.
Three properties keep that honest:

* a differential: every part combination that takes the specialized
  path replays seeded random ops against a twin forced onto the general
  path (its hook observes probes and does nothing with them); results,
  counters and set contents, in replacement order, must agree;
* the stale-method trap: the SMs and the translation service cache the
  TLBs' methods, so the builder must bind tracers first — with
  telemetry on every cached method is the general one and the TLB
  instants appear, with telemetry off every cached method is specialized;
* ``GPU.run`` freezes the collector's view of the heap only around
  ``sim.run()`` and only when nothing else froze it.
"""

import gc
from random import Random

import pytest

from repro.core.partitioned_tlb import (
    SetSharingSpill,
    TBIDIndexPolicy,
    TenantIndexPolicy,
)
from repro.core.set_sharing import (
    AllToAllSharingRegister,
    CounterSharingRegister,
    SharingRegister,
)
from repro.engine.errors import LivelockError
from repro.engine.simulator import Simulator
from repro.experiments.configs import get_config
from repro.system import build_gpu
from repro.telemetry import Tracer
from repro.translation.tlb import (
    EvictionHook,
    MaskedVPNIndexPolicy,
    SetAssociativeTLB,
    VPNIndexPolicy,
)
from repro.workloads import make_benchmark

ASSOC = 4


class ObservedDrop(EvictionHook):
    """The default hook plus a no-op probe observer: general path."""

    def observe_probe(self, vpn, hit):
        pass


class ObservedSpill(SetSharingSpill):
    """The set-sharing spill plus a no-op probe observer: general path."""

    def observe_probe(self, vpn, hit):
        pass


REGISTERS = {
    "one-bit": lambda: SharingRegister(16),
    "counter": lambda: CounterSharingRegister(16, threshold=2),
    "all-to-all": lambda: AllToAllSharingRegister(16),
}


def _vpn(num_entries, granularity=1):
    return lambda: (
        VPNIndexPolicy(num_entries // ASSOC, granularity=granularity),
        None,
    )


def _tbid(num_entries, register=None):
    def parts():
        sharing = REGISTERS[register]() if register else None
        return TBIDIndexPolicy(num_entries // ASSOC, sharing=sharing), True
    return parts


#: (id, num_entries, make_parts); make_parts() -> (policy, spills) where
#: ``spills`` picks SetSharingSpill over the default hook
COMBINATIONS = [
    ("vpn-pow2", 64, _vpn(64)),
    ("vpn-pow2-g4", 64, _vpn(64, granularity=4)),
    ("vpn-12-sets", 48, _vpn(48)),
    ("masked-vpn", 64, lambda: (MaskedVPNIndexPolicy(16, tag_shift=6), None)),
    ("tenant-slices", 64, lambda: (TenantIndexPolicy(16, 3, tag_shift=6), None)),
    ("tbid-drop-hook", 64, lambda: (TBIDIndexPolicy(16), None)),
    ("tbid-partition", 64, _tbid(64)),
    ("tbid-partition-8-sets", 32, _tbid(32)),
    *[
        (f"tbid-sharing-{name}-{entries // ASSOC}-sets", entries,
         _tbid(entries, name))
        for name in REGISTERS
        for entries in (64, 32)
    ],
]


def _build(num_entries, make_parts, observed):
    policy, spills = make_parts()
    if spills:
        hook = ObservedSpill() if observed else SetSharingSpill()
    else:
        hook = ObservedDrop() if observed else EvictionHook()
    return SetAssociativeTLB(num_entries, ASSOC, 1.0, policy=policy, hook=hook)


def _specialized(tlb):
    return "probe" in vars(tlb) and "insert" in vars(tlb)


def _state(tlb):
    return (
        [list(s.items()) for s in tlb.sets],
        tlb.stats.as_dict(),
        [tlb.sharing.is_sharing(t) for t in range(16)] if tlb.sharing else None,
    )


@pytest.mark.parametrize(
    "num_entries,make_parts",
    [pytest.param(n, make, id=name) for name, n, make in COMBINATIONS],
)
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_specialized_path_equals_general_path(num_entries, make_parts, seed):
    fast = _build(num_entries, make_parts, observed=False)
    slow = _build(num_entries, make_parts, observed=True)
    assert _specialized(fast) and not _specialized(slow)
    rng = Random(seed)
    occupancy = 4
    for tlb in (fast, slow):
        tlb.configure_occupancy(occupancy)
    for step in range(3_000):
        roll = rng.random()
        tb = rng.randrange(min(occupancy, 16))
        # tagged VPNs for the tenant policies (3 ASIDs above bit 6)
        vpn = rng.randrange(3) << 6 | rng.randrange(64)
        if roll < 0.03:
            assert fast.invalidate(vpn) == slow.invalidate(vpn)
        elif roll < 0.033:
            fast.flush()
            slow.flush()
        elif roll < 0.06:
            fast.on_tb_finished(tb)
            slow.on_tb_finished(tb)
        elif roll < 0.063:
            occupancy = rng.choice([1, 3, 4, 9, 16, 24])
            fast.configure_occupancy(occupancy)
            slow.configure_occupancy(occupancy)
        elif roll < 0.5:
            got = fast.probe(vpn, tb)
            assert got == slow.probe(vpn, tb), f"step {step}: probe diverged"
        else:
            ppn = rng.randrange(10_000)
            got = fast.insert(vpn, ppn, tb)
            assert got == slow.insert(vpn, ppn, tb), f"step {step}: insert diverged"
        if step % 300 == 0:
            assert _state(fast) == _state(slow), f"step {step}: state diverged"
    assert _state(fast) == _state(slow)
    assert fast.stats.counter_value("evictions") > 0


@pytest.mark.parametrize(
    "make",
    [
        pytest.param(lambda: SetAssociativeTLB(64, 4, 1.0, replacement="fifo"), id="fifo"),
        pytest.param(
            lambda: SetAssociativeTLB(64, 4, 1.0, hook=ObservedDrop()), id="observer"
        ),
    ],
)
def test_other_parts_keep_the_general_path(make):
    assert not _specialized(make())


def test_binding_a_tracer_switches_paths_both_ways():
    tlb = SetAssociativeTLB(64, 4, 1.0)
    assert _specialized(tlb)
    tracer = Tracer()
    tlb.bind_tracer(tracer, lambda: 0.0, tracer.track("tlb"))
    assert not _specialized(tlb)
    tlb.probe(1)
    assert tracer.num_events == 1
    tlb.bind_tracer(None, None, 0)
    assert _specialized(tlb)


def _cached_methods(gpu):
    service = gpu.sms[0].translation
    pairs = [(service._probe, service.l2_tlb, "probe"),
             (service._insert, service.l2_tlb, "insert")]
    for sm in gpu.sms:
        pairs += [(sm._probe, sm.l1_tlb, "probe"), (sm._insert, sm.l1_tlb, "insert")]
    return pairs


@pytest.mark.parametrize("config", ["baseline", "partition", "partition_sharing"])
def test_cached_methods_follow_telemetry(config):
    off = build_gpu(get_config(config), sim=Simulator(sanitizer=None))
    for method, tlb, name in _cached_methods(off):
        assert method is vars(tlb)[name]

    tracer = Tracer()
    on = build_gpu(get_config(config), sim=Simulator(tracer=tracer, sanitizer=None))
    for method, tlb, name in _cached_methods(on):
        assert method.__self__ is tlb
        assert method.__func__ is getattr(SetAssociativeTLB, name)
    on.run(make_benchmark("atax", "micro", 0))
    names = {
        event[5] for event in tracer.events() if event[4] == "tlb"
    }
    assert {"hit", "miss", "evict"} <= names


class TestCollectorFreeze:
    def test_run_leaves_the_freeze_count_as_found(self):
        gpu = build_gpu(get_config("partition_sharing"), sim=Simulator(sanitizer=None))
        before = gc.get_freeze_count()
        gpu.run(make_benchmark("atax", "micro", 0))
        assert gc.get_freeze_count() == before

    def test_a_raising_run_unfreezes(self):
        gpu = build_gpu(
            get_config("baseline"), sim=Simulator(max_events=50, sanitizer=None)
        )
        assert gc.get_freeze_count() == 0
        with pytest.raises(LivelockError):
            gpu.run(make_benchmark("atax", "micro", 0))
        assert gc.get_freeze_count() == 0

    def test_a_callers_freeze_is_left_alone(self):
        gpu = build_gpu(get_config("baseline"), sim=Simulator(sanitizer=None))
        kernel = make_benchmark("atax", "micro", 0)
        sentinel = [object()]

        def frozen():
            # the permanent generation is invisible to get_objects
            return not any(obj is sentinel for obj in gc.get_objects())

        gc.freeze()
        try:
            assert frozen()
            gpu.run(kernel)
            assert frozen()
            with pytest.raises(LivelockError):
                build_gpu(
                    get_config("baseline"),
                    sim=Simulator(max_events=50, sanitizer=None),
                ).run(kernel)
            assert frozen()
        finally:
            gc.unfreeze()
        assert not frozen()
