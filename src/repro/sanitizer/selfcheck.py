"""Differential / metamorphic self-check suites (``repro check``).

Each suite states an equivalence the simulator must satisfy by
construction and then *measures* it, so a refactor that silently breaks
the property fails a first-class gate instead of skewing figures:

* ``tlb-sharing`` — a TB-id-partitioned L1 TLB at occupancy 1 (every TB
  owns — i.e. shares — every set, the "unlimited sharing" degenerate
  point) must be access-for-access equivalent to the baseline shared
  VPN-indexed TLB: same hits, misses, evictions, and final contents
  under a long random access stream.
* ``telemetry`` — attaching a tracer and a time-series sampler must not
  change a cell's architectural result (observation ≠ perturbation).
* ``sanitizer`` — running under ``--sanitize=strict`` must not change a
  cell's result either; the checkers only read.
* ``resume`` — a sweep interrupted after its first cell and resumed
  from the checkpoint must reproduce the cold run bit-for-bit, while
  actually restoring (not re-simulating) the finished cell.
* ``tenancy-identity`` — a 1-tenant exclusive-mode multi-tenant machine
  must reproduce the plain single-tenant simulation *byte-identically*:
  the entire tenancy layer (ASID relocation at offset 0, the ASID
  router, tenant-aware scheduling and metrics collection) must be a
  transparent no-op at n=1.
* ``registry-identity`` — the policy registry's all-defaults spec must
  resolve to a config equal to the hand-built ``BASELINE_CONFIG`` *and*
  simulate byte-identically to the named ``baseline`` configuration.
* ``contiguity-degenerate`` — the subregion-contiguity TLB at
  ``max_ratio=1`` (every region is one page) must be access-for-access
  equivalent to the stock set-associative TLB.
* ``deadentry-identity`` — the dead-entry filter at ``threshold=None``
  (infinite) observes but never bypasses, so the protected TLB must be
  access-for-access equivalent to an unprotected one.

Suites return :class:`CheckOutcome` records rather than raising, so the
CLI can run all of them and report every failure at once.
"""

from __future__ import annotations

import os
import tempfile
import time
from dataclasses import dataclass
from random import Random
from typing import Callable, Dict, List, Optional

#: cell used by the run-level invariance suites (micro-scale: ~seconds)
_CELL_BENCHMARK = "bfs"
_CELL_CONFIG = "partition_sharing"


@dataclass
class CheckOutcome:
    """Result of one self-check suite."""

    suite: str
    passed: bool
    detail: str = ""
    elapsed: float = 0.0

    def __str__(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        extra = f": {self.detail}" if self.detail else ""
        return f"[{mark}] {self.suite} ({self.elapsed:.1f}s){extra}"


def _result_payload(result, ignore: tuple = ("timeseries",)) -> Dict:
    """A cell result as a comparable dict, minus telemetry-only fields."""
    payload = result.to_dict()
    for key in ignore:
        payload.pop(key, None)
    return payload


def _diff_payloads(a: Dict, b: Dict) -> Optional[str]:
    """First differing top-level field between two result payloads."""
    for key in sorted(set(a) | set(b)):
        if a.get(key) != b.get(key):
            return (
                f"field {key!r} differs: {str(a.get(key))[:60]} != "
                f"{str(b.get(key))[:60]}"
            )
    return None


# ---------------------------------------------------------------------- #
# Suite: partitioned TLB with unlimited sharing ≡ shared TLB
# ---------------------------------------------------------------------- #
def suite_tlb_sharing(scale: str, seed: int) -> CheckOutcome:
    """Occupancy-1 TB-id partitioning must equal the shared VPN TLB.

    At occupancy 1 every hardware TB maps to slot 0 and owns all sets —
    the fully-shared limit of the paper's mechanism.  The insert-set
    spread then picks ``vpn % num_sets``, exactly the baseline index
    function, so hit/miss/eviction streams and final contents must be
    identical for any access stream.  ``scale`` is unused (component
    level); kept for the uniform suite signature.
    """
    from ..core.partitioned_tlb import SetSharingSpill, TBIDIndexPolicy
    from ..translation.tlb import SetAssociativeTLB

    rng = Random(seed)
    shared = SetAssociativeTLB(64, 4, 1.0, name="shared_ref")
    partitioned = SetAssociativeTLB(
        64, 4, 1.0, policy=TBIDIndexPolicy(16, occupancy=1),
        name="part_occ1", hook=SetSharingSpill(),
    )
    for step in range(20_000):
        roll = rng.random()
        if roll < 0.02:
            vpn = rng.randrange(256)
            shared.invalidate(vpn)
            partitioned.invalidate(vpn)
            continue
        if roll < 0.022:
            shared.flush()
            partitioned.flush()
            continue
        vpn = rng.randrange(256)
        tb = rng.randrange(16)
        hit_s = shared.probe(vpn, tb_id=tb).hit
        hit_p = partitioned.probe(vpn, tb_id=tb).hit
        if hit_s != hit_p:
            return CheckOutcome(
                "tlb-sharing", False,
                f"step {step}: shared hit={hit_s} but occupancy-1 "
                f"partitioned hit={hit_p} (vpn={vpn}, tb={tb})",
            )
        if not hit_s:
            shared.insert(vpn, vpn * 7 + 1, tb_id=tb)
            partitioned.insert(vpn, vpn * 7 + 1, tb_id=tb)
    for label, a, b in (
        ("hits", shared.hits, partitioned.hits),
        ("misses", shared.misses, partitioned.misses),
        ("evictions", shared.stats.counter_value("evictions"),
         partitioned.stats.counter_value("evictions")),
    ):
        if a != b:
            return CheckOutcome(
                "tlb-sharing", False, f"{label} diverged: {a} != {b}"
            )
    contents_s = sorted(
        (vpn, ppn) for s in shared.sets for vpn, ppn in s.items()
    )
    contents_p = sorted(
        (vpn, ppn) for s in partitioned.sets for vpn, ppn in s.items()
    )
    if contents_s != contents_p:
        return CheckOutcome(
            "tlb-sharing", False,
            f"final contents diverged ({len(contents_s)} vs "
            f"{len(contents_p)} entries)",
        )
    return CheckOutcome(
        "tlb-sharing", True,
        f"{shared.accesses} accesses, {shared.hits} hits identical",
    )


# ---------------------------------------------------------------------- #
# Run-level invariance suites
# ---------------------------------------------------------------------- #
def _simulate(scale: str, seed: int, telemetry=None, sanitize="off"):
    """One in-process cell for the invariance suites.

    ``sanitize`` defaults to the explicit "off" so suite baselines stay
    comparable even when the environment exports ``REPRO_SANITIZE``.
    """
    from ..engine.supervision import CellSpec, simulate_cell
    from ..experiments.configs import get_config

    return simulate_cell(
        CellSpec(
            benchmark=_CELL_BENCHMARK,
            config=get_config(_CELL_CONFIG),
            config_tag=_CELL_CONFIG,
            scale=scale,
            seed=seed,
            telemetry=telemetry,
            sanitize=sanitize,
        )
    )


def suite_telemetry(scale: str, seed: int) -> CheckOutcome:
    """Tracer + sampler attached vs no telemetry: identical results."""
    from ..telemetry import TelemetrySettings

    plain = _result_payload(_simulate(scale, seed))
    with tempfile.TemporaryDirectory() as tmp:
        traced_result = _simulate(
            scale, seed,
            telemetry=TelemetrySettings(
                trace_path=os.path.join(tmp, "cell.trace.json"),
                sample_every=128,
            ),
        )
    if traced_result.timeseries is None:
        return CheckOutcome(
            "telemetry", False, "sampler attached but no timeseries came back"
        )
    diff = _diff_payloads(plain, _result_payload(traced_result))
    if diff is not None:
        return CheckOutcome("telemetry", False, diff)
    return CheckOutcome(
        "telemetry", True,
        f"{_CELL_BENCHMARK}:{_CELL_CONFIG} identical with tracer+sampler",
    )


def suite_sanitizer(scale: str, seed: int) -> CheckOutcome:
    """--sanitize=strict vs off: identical results, >0 sweeps executed."""
    plain = _result_payload(_simulate(scale, seed))
    sanitized = _result_payload(_simulate(scale, seed, sanitize="strict"))
    diff = _diff_payloads(plain, sanitized)
    if diff is not None:
        return CheckOutcome("sanitizer", False, diff)
    return CheckOutcome(
        "sanitizer", True,
        f"{_CELL_BENCHMARK}:{_CELL_CONFIG} identical under strict sweeps",
    )


def suite_resume(scale: str, seed: int) -> CheckOutcome:
    """Checkpoint-interrupt-resume must reproduce the cold run exactly."""
    from ..experiments.runner import ExperimentRunner

    cells = [("bfs", "baseline"), ("bfs", "partition_sharing")]

    def sweep(runner) -> List[Dict]:
        payloads = [
            _result_payload(runner.run(bench, cfg)) for bench, cfg in cells
        ]
        runner.close()
        return payloads

    cold = sweep(ExperimentRunner(scale=scale, seed=seed, sanitize="off"))
    with tempfile.TemporaryDirectory() as tmp:
        store = os.path.join(tmp, "sweep.ckpt")
        first = ExperimentRunner(
            scale=scale, seed=seed, checkpoint_path=store, sanitize="off"
        )
        first.run(*cells[0])
        first.close()  # "interrupted" after one cell; manifest written
        resumed = ExperimentRunner(
            scale=scale, seed=seed, checkpoint_path=store, resume=True,
            sanitize="off",
        )
        warm = sweep(resumed)
    if resumed.cells_restored != 1 or resumed.cells_simulated != 1:
        return CheckOutcome(
            "resume", False,
            f"expected 1 restored + 1 simulated cell, got "
            f"{resumed.cells_restored} + {resumed.cells_simulated}",
        )
    for (bench, cfg), a, b in zip(cells, cold, warm):
        diff = _diff_payloads(a, b)
        if diff is not None:
            return CheckOutcome("resume", False, f"{bench}:{cfg} {diff}")
    return CheckOutcome(
        "resume", True, f"{len(cells)} cells identical after resume"
    )


def suite_tenancy_identity(scale: str, seed: int) -> CheckOutcome:
    """1 tenant + exclusive partitioning ≡ the single-tenant machine.

    The strongest metamorphic property the tenancy subsystem offers:
    with one tenant in exclusive mode every tenancy mechanism must
    reduce to the identity (relocation adds offset 0, the ASID router
    passes through, the tenant scheduler delegates to the stock
    scheduler over all SMs), so the combined result — stats dump
    included — must be byte-identical to :func:`repro.system.build_gpu`.
    Checked for both the baseline and the proposal configuration.
    """
    from ..experiments.configs import get_config
    from ..tenancy import PartitionMode, TenancySpec, build_tenant_gpu

    for config_tag in ("baseline", _CELL_CONFIG):
        from ..engine.supervision import CellSpec, simulate_cell

        base = simulate_cell(
            CellSpec(
                benchmark=_CELL_BENCHMARK,
                config=get_config(config_tag),
                config_tag=config_tag,
                scale=scale,
                seed=seed,
                sanitize="off",
            )
        )
        spec = TenancySpec(
            mix=(_CELL_BENCHMARK,),
            mode=PartitionMode.EXCLUSIVE,
            scale=scale,
            seed=seed,
        )
        gpu = build_tenant_gpu(spec, get_config(config_tag))
        tenant = gpu.run_tenants()
        diff = _diff_payloads(
            _result_payload(base), _result_payload(tenant.combined)
        )
        if diff is not None:
            return CheckOutcome(
                "tenancy-identity", False,
                f"{_CELL_BENCHMARK}:{config_tag} 1-tenant exclusive "
                f"diverged from the single-tenant machine — {diff}",
            )
    return CheckOutcome(
        "tenancy-identity", True,
        f"{_CELL_BENCHMARK} byte-identical under baseline and "
        f"{_CELL_CONFIG}",
    )


# ---------------------------------------------------------------------- #
# Translation-zoo metamorphic identities
# ---------------------------------------------------------------------- #
def _drive_tlb_pair(
    name: str, seed: int, tlb_a, tlb_b, ops: int = 20_000
) -> Optional[CheckOutcome]:
    """Drive two TLBs with one random stream; ``None`` means identical.

    The stream mixes probes/inserts with 2% invalidations and 0.2%
    flushes — the same shape the ``tlb-sharing`` suite uses.
    """
    rng = Random(seed)
    for step in range(ops):
        roll = rng.random()
        if roll < 0.02:
            vpn = rng.randrange(256)
            tlb_a.invalidate(vpn)
            tlb_b.invalidate(vpn)
            continue
        if roll < 0.022:
            tlb_a.flush()
            tlb_b.flush()
            continue
        vpn = rng.randrange(256)
        res_a = tlb_a.probe(vpn)
        res_b = tlb_b.probe(vpn)
        if (res_a.hit, res_a.ppn) != (res_b.hit, res_b.ppn):
            return CheckOutcome(
                name, False,
                f"step {step}: probe(vpn={vpn}) diverged — "
                f"({res_a.hit}, {res_a.ppn}) != ({res_b.hit}, {res_b.ppn})",
            )
        if not res_a.hit:
            ppn = vpn * 7 + 1
            tlb_a.insert(vpn, ppn)
            tlb_b.insert(vpn, ppn)
    for label, a, b in (
        ("hits", tlb_a.hits, tlb_b.hits),
        ("misses", tlb_a.misses, tlb_b.misses),
        ("evictions", tlb_a.stats.counter_value("evictions"),
         tlb_b.stats.counter_value("evictions")),
    ):
        if a != b:
            return CheckOutcome(name, False, f"{label} diverged: {a} != {b}")
    return None


def suite_registry_identity(scale: str, seed: int) -> CheckOutcome:
    """Registry all-defaults spec ≡ hand-constructed baseline config.

    Two layers: the resolved dataclass must *equal* ``BASELINE_CONFIG``
    (field-for-field), and simulating through it must produce the named
    ``baseline`` configuration's result byte-identically — proving the
    registry's wiring path adds nothing.
    """
    from ..arch.config import BASELINE_CONFIG
    from ..engine.supervision import CellSpec, simulate_cell
    from ..translation.registry import default_registry

    registry = default_registry()
    resolved = registry.resolve(registry.default_spec())
    if resolved != BASELINE_CONFIG:
        return CheckOutcome(
            "registry-identity", False,
            f"resolve({registry.default_spec()!r}) != BASELINE_CONFIG",
        )
    base = _result_payload(simulate_cell(CellSpec(
        benchmark=_CELL_BENCHMARK, config=BASELINE_CONFIG,
        config_tag="baseline", scale=scale, seed=seed, sanitize="off",
    )))
    via_registry = _result_payload(simulate_cell(CellSpec(
        benchmark=_CELL_BENCHMARK, config=resolved,
        config_tag="baseline", scale=scale, seed=seed, sanitize="off",
    )))
    diff = _diff_payloads(base, via_registry)
    if diff is not None:
        return CheckOutcome("registry-identity", False, diff)
    return CheckOutcome(
        "registry-identity", True,
        f"default spec resolves to baseline; {_CELL_BENCHMARK} "
        f"byte-identical through the registry",
    )


def suite_contiguity_degenerate(scale: str, seed: int) -> CheckOutcome:
    """Contiguity TLB at max_ratio=1 ≡ stock TLB (run length 1).

    With one page per region the bitmap is always ``0b1`` and the anchor
    is the page's own frame, so probes, inserts, invalidations, and the
    hit/miss/eviction counters must match the stock TLB exactly.
    ``decompression_latency=0`` removes the only intended difference
    (the critical-path adder).  ``scale`` unused (component level).
    """
    from ..translation.compression import ContiguityTLB
    from ..translation.tlb import SetAssociativeTLB

    stock = SetAssociativeTLB(64, 4, 1.0, name="stock_ref")
    contig = ContiguityTLB(
        64, 4, 1.0, max_ratio=1, decompression_latency=0.0, name="contig1"
    )
    failure = _drive_tlb_pair("contiguity-degenerate", seed, stock, contig)
    if failure is not None:
        return failure
    return CheckOutcome(
        "contiguity-degenerate", True,
        f"{stock.accesses} accesses identical at run length 1",
    )


def suite_deadentry_identity(scale: str, seed: int) -> CheckOutcome:
    """Dead-entry filter at threshold=∞ ≡ no filter (never bypasses).

    ``threshold=None`` keeps the predictor observing (dead fills are
    still counted) but disables the bypass gate, so the protected TLB's
    externally visible behaviour must match an unprotected TLB on any
    stream — and ``bypassed_fills`` must end at zero.  ``scale`` unused
    (component level).
    """
    from ..translation.tlb import DeadEntryFilter, SetAssociativeTLB

    plain = SetAssociativeTLB(64, 4, 1.0, name="plain_ref")
    protected = SetAssociativeTLB(
        64, 4, 1.0, name="protected", dead_filter=DeadEntryFilter(threshold=None)
    )
    failure = _drive_tlb_pair("deadentry-identity", seed, plain, protected)
    if failure is not None:
        return failure
    bypassed = protected.dead_filter.bypassed_fills
    if bypassed != 0:
        return CheckOutcome(
            "deadentry-identity", False,
            f"threshold=None bypassed {bypassed} fills (must be 0)",
        )
    return CheckOutcome(
        "deadentry-identity", True,
        f"{plain.accesses} accesses identical with an infinite threshold "
        f"({protected.dead_filter.dead_fills} dead fills observed)",
    )


#: suite registry: name -> fn(scale, seed) -> CheckOutcome
SUITES: Dict[str, Callable[[str, int], CheckOutcome]] = {
    "tlb-sharing": suite_tlb_sharing,
    "telemetry": suite_telemetry,
    "sanitizer": suite_sanitizer,
    "resume": suite_resume,
    "tenancy-identity": suite_tenancy_identity,
    "registry-identity": suite_registry_identity,
    "contiguity-degenerate": suite_contiguity_degenerate,
    "deadentry-identity": suite_deadentry_identity,
}


def run_suites(
    names: Optional[List[str]] = None, scale: str = "micro", seed: int = 0
) -> List[CheckOutcome]:
    """Run the named suites (all by default) and time each one."""
    outcomes: List[CheckOutcome] = []
    for name in names if names is not None else sorted(SUITES):
        started = time.monotonic()
        try:
            outcome = SUITES[name](scale, seed)
        except Exception as exc:  # noqa: BLE001 — a crash is a failure
            outcome = CheckOutcome(
                name, False, f"suite crashed: {type(exc).__name__}: {exc}"
            )
        outcome.elapsed = time.monotonic() - started
        outcomes.append(outcome)
    return outcomes
