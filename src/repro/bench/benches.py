"""Pinned benchmark workloads for the ``repro bench`` harness.

Each bench is a :class:`BenchSpec`: a setup callable building fresh
state (excluded from timing) and a body callable that executes a fixed,
seeded operation stream and returns the number of work units performed
(events run, probes issued, grants made, simulated cycles).  The
harness times the body only, so trial-to-trial variance is scheduler
noise, not allocation of the workload itself.

Sizes scale down uniformly under ``--quick`` (CI smoke) without
changing the operation mix.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, Tuple

#: unit of work each bench's body return value counts
Body = Callable[[], float]


@dataclass(frozen=True)
class BenchSpec:
    """One pinned benchmark: deterministic setup + timed body."""

    name: str
    #: what one unit of the body's return value means (for throughput)
    unit: str
    #: builds fresh state and returns the timed body
    setup: Callable[[bool], Body]
    #: one-line description for the report table
    description: str = ""


# --------------------------------------------------------------------- #
# Engine: event-queue churn
# --------------------------------------------------------------------- #
def _setup_event_queue(quick: bool) -> Body:
    from ..engine.event_queue import EventQueue

    n_rounds = 2_000 if quick else 20_000
    rng = random.Random(1234)
    # pre-draw the schedule pattern so the timed body does no RNG work
    delays = [rng.uniform(0.0, 10.0) for _ in range(64)]

    def body() -> float:
        q = EventQueue()
        events = 0
        counter = 0

        def tick() -> None:
            nonlocal counter
            counter += 1

        # seed a standing population, then churn: every pop schedules
        # two more until the budget is exhausted — mimics the fan-out of
        # SM grant events scheduling data/translation completions
        budget = n_rounds
        for i in range(32):
            q.schedule(delays[i % 64], tick)
        pending = 32
        while pending:
            handle = None
            if budget > 0:
                t = q.peek_time() or 0.0
                q.schedule(t + delays[budget % 64], tick)
                handle = q.schedule(t + delays[(budget + 7) % 64], tick)
                q.schedule(t + delays[(budget + 13) % 64], tick)
                pending += 3
                budget -= 1
                if budget % 5 == 0:
                    handle.cancel()
                    pending -= 1
            q.pop_and_run()
            pending -= 1
            events += 1
        return float(events)

    return body


# --------------------------------------------------------------------- #
# Engine: simulator drive loop (queue + dispatch overhead, no model)
# --------------------------------------------------------------------- #
def _setup_sim_drain(quick: bool) -> Body:
    from ..engine.simulator import Simulator

    n_events = 5_000 if quick else 50_000

    def body() -> float:
        sim = Simulator(sanitizer=None)
        remaining = n_events

        def hop() -> None:
            nonlocal remaining
            remaining -= 1
            if remaining > 0:
                sim.schedule_after(1.0, hop)
                if remaining % 64 == 0:
                    sim.note_progress()

        sim.schedule(0.0, hop)
        sim.run()
        return float(n_events)

    return body


# --------------------------------------------------------------------- #
# Translation: baseline TLB steady state
# --------------------------------------------------------------------- #
def _tlb_stream(quick: bool) -> Tuple[list, int]:
    n_ops = 10_000 if quick else 100_000
    rng = random.Random(99)
    # 80/20 mix of a hot working set and a cold tail — steady-state hit
    # rates around what fig2 reports, so LRU refresh AND insert/evict
    # paths are both exercised
    hot = [rng.randrange(0, 48) for _ in range(n_ops)]
    stream = [
        vpn if rng.random() < 0.8 else rng.randrange(0, 4096)
        for vpn in hot
    ]
    return stream, n_ops


def _setup_tlb_baseline(quick: bool) -> Body:
    from ..translation.tlb import SetAssociativeTLB

    stream, n_ops = _tlb_stream(quick)

    def body() -> float:
        tlb = SetAssociativeTLB(64, 4, 1.0)
        probe = tlb.probe
        insert = tlb.insert
        for vpn in stream:
            if not probe(vpn).hit:
                insert(vpn, vpn + 1)
        return float(n_ops)

    return body


# --------------------------------------------------------------------- #
# Translation: partitioned TLB with set sharing
# --------------------------------------------------------------------- #
def _setup_tlb_partitioned(quick: bool) -> Body:
    from ..core.partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
    from ..core.set_sharing import SharingRegister
    from ..translation.tlb import SetAssociativeTLB

    stream, n_ops = _tlb_stream(quick)
    rng = random.Random(7)
    tbs = [rng.randrange(0, 8) for _ in range(len(stream))]

    def body() -> float:
        tlb = SetAssociativeTLB(
            64, 4, 1.0, policy=TBIDIndexPolicy(16, sharing=SharingRegister(16)),
            hook=SetSharingSpill(),
        )
        tlb.configure_occupancy(8)
        probe = tlb.probe
        insert = tlb.insert
        for vpn, tb in zip(stream, tbs):
            if not probe(vpn, tb).hit:
                insert(vpn, vpn + 1, tb)
        return float(n_ops)

    return body


# --------------------------------------------------------------------- #
# Engine: resource-pool grant churn
# --------------------------------------------------------------------- #
def _setup_resource_pool(quick: bool) -> Body:
    from ..engine.resources import ResourcePool

    n_grants = 10_000 if quick else 100_000
    rng = random.Random(5)
    arrivals = [0.0]
    for _ in range(n_grants - 1):
        arrivals.append(arrivals[-1] + rng.choice((0.0, 0.0, 0.0, 1.0, 25.0)))

    def body() -> float:
        pool = ResourcePool(8, 20.0)
        acquire = pool.acquire
        for now in arrivals:
            acquire(now)
        pool.reset()
        return float(n_grants)

    return body


# --------------------------------------------------------------------- #
# Arch: memory coalescer
# --------------------------------------------------------------------- #
def _setup_coalescer(quick: bool) -> Body:
    from ..arch.coalescer import coalesce, coalesce_strided

    n_warps = 2_000 if quick else 20_000
    rng = random.Random(42)
    divergent = [
        [rng.randrange(0, 1 << 20) for _ in range(32)] for _ in range(64)
    ]

    def body() -> float:
        lanes = 0
        for i in range(n_warps):
            # unit-stride (fully coalesced), large-stride, and divergent
            coalesce_strided(i * 128, 4, 32)
            coalesce_strided(i * 4096, 512, 32)
            coalesce(divergent[i % 64])
            lanes += 96
        return float(lanes)

    return body


# --------------------------------------------------------------------- #
# Meso: one full fig2 cell (bfs × baseline @ micro)
# --------------------------------------------------------------------- #
def _setup_fig2_cell(quick: bool) -> Body:
    from ..engine.supervision import CellSpec, simulate_cell
    from ..experiments.configs import get_config

    spec = CellSpec(
        "bfs", get_config("baseline"), "baseline", scale="micro", seed=0
    )

    def body() -> float:
        result = simulate_cell(spec)
        # work units = simulated cycles, so throughput is cycles/sec —
        # the number the ROADMAP's "faster cells" goal is about
        return float(result.cycles)

    return body


BENCHES: Dict[str, BenchSpec] = {
    spec.name: spec
    for spec in (
        BenchSpec(
            "event_queue_churn",
            "events",
            _setup_event_queue,
            "schedule/cancel/pop churn on the discrete-event heap",
        ),
        BenchSpec(
            "sim_drain",
            "events",
            _setup_sim_drain,
            "Simulator.run dispatch loop over self-rescheduling events",
        ),
        BenchSpec(
            "tlb_baseline",
            "probes",
            _setup_tlb_baseline,
            "VPN-indexed TLB probe/insert steady state (80/20 mix)",
        ),
        BenchSpec(
            "tlb_partitioned",
            "probes",
            _setup_tlb_partitioned,
            "TB-id-partitioned TLB with set sharing, 8 resident TBs",
        ),
        BenchSpec(
            "resource_pool",
            "grants",
            _setup_resource_pool,
            "8-server walker-pool grants, bursty arrivals",
        ),
        BenchSpec(
            "coalescer",
            "lanes",
            _setup_coalescer,
            "per-warp address coalescing, strided + divergent",
        ),
        BenchSpec(
            "fig2_cell",
            "cycles",
            _setup_fig2_cell,
            "full bfs × baseline cell at micro scale (sim cycles/sec)",
        ),
    )
}
