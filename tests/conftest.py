"""Shared fixtures for the test suite.

Simulation tests default to the ``micro`` workload scale so the whole
suite stays fast; the paper's shape checks run at the calibrated
``small`` scale in ``repro report``, which renders EXPERIMENTS.md.
"""

import os

import pytest

try:
    from hypothesis import HealthCheck, settings as _hyp_settings

    # Tier-1 runs property tests derandomized by default (a fixed
    # example stream per test, no timing-dependent deadline or health
    # check), so a red run replays bit-for-bit anywhere.  Exploration
    # is kept by CI, which selects REPRO_HYPOTHESIS_PROFILE=explore and
    # pins a few --hypothesis-seed values; "ci" is the short stream the
    # tests job replays over the property oracles.
    _hyp_settings.register_profile(
        "derandomized",
        deadline=None,
        derandomize=True,
        database=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    _hyp_settings.register_profile(
        "explore",
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    _hyp_settings.register_profile(
        "ci",
        max_examples=30,
        deadline=None,
        derandomize=True,
        suppress_health_check=list(HealthCheck),
    )
    _hyp_settings.load_profile(
        os.environ.get("REPRO_HYPOTHESIS_PROFILE") or "derandomized"
    )
except ImportError:  # pragma: no cover - hypothesis is present in CI
    pass

from repro import BASELINE_CONFIG
from repro.arch.kernel import Kernel, MemoryInstruction, TBTrace, WarpTrace
from repro.engine.simulator import Simulator


@pytest.fixture
def sim():
    return Simulator()


@pytest.fixture
def baseline_config():
    return BASELINE_CONFIG


def build_kernel(
    num_tbs=4,
    warps_per_tb=2,
    instrs_per_warp=10,
    pages_per_warp=None,
    page_size=4096,
    compute_gap=4.0,
    name="synthetic",
    threads_per_tb=64,
):
    """Tiny deterministic kernel: warp w of TB t walks its own pages.

    ``pages_per_warp`` limits the number of distinct pages (cycling),
    which makes reuse behaviour easy to reason about in tests.
    """
    tbs = []
    for t in range(num_tbs):
        warps = []
        for w in range(warps_per_tb):
            base_page = (t * warps_per_tb + w) * 1000
            instrs = []
            for i in range(instrs_per_warp):
                page = base_page + (
                    i % pages_per_warp if pages_per_warp else i
                )
                instrs.append(
                    MemoryInstruction(compute_gap, (page * page_size,))
                )
            warps.append(WarpTrace(instrs))
        tbs.append(TBTrace(t, warps))
    return Kernel(name, threads_per_tb=threads_per_tb, tbs=tbs)


def entries(store):
    """Valid entries of a TLB (or lines of a cache), read off its sets."""
    return sum(len(s) for s in store.sets)


def tlb_holds(tlb, vpn, tb_id=None):
    """Whether a per-page TLB holds ``vpn`` in a set that a probe from
    ``tb_id`` reads; unlike a probe it moves no LRU order and no stat."""
    return any(vpn in tlb.sets[s] for s in tlb.policy.lookup_sets(vpn, tb_id))


def figure(runner, module):
    """One figure built the way ``repro report`` builds it: declare the
    module's cells, execute them, compute the result."""
    return module.compute(runner, runner.execute(module.cells(runner)))


@pytest.fixture
def tiny_kernel():
    return build_kernel()
