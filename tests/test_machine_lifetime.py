"""A finished machine is freed by reference counting alone.

Every event carries a method plus its arguments rather than a closure,
no component stores a bound method of itself, and the two back-edges to
the GPU (the SMs' TB-completion hook and the Simulator's diagnostic
hook) are weak.  So once a cell's result is taken and the GPU dropped,
nothing of the machine is left for the cyclic garbage collector — which
would otherwise run full collections over it inside whatever runs next.
"""

import gc

import pytest

from repro.engine.simulator import Simulator
from repro.experiments.configs import get_config
from repro.system import build_gpu
from repro.workloads import make_benchmark


@pytest.fixture
def collector_off():
    """Collector disabled for the test body; pre-existing garbage swept."""
    gc.collect()
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "config", ["baseline", "partition_sharing", "compression"]
)
@pytest.mark.parametrize("bench", ["atax", "bfs"])
def test_finished_cell_leaves_no_cyclic_garbage(bench, config, collector_off):
    kernel = make_benchmark(bench, "micro", 0)
    gc.collect()
    # sanitizer=None: the sanitizer keeps its own references to the
    # machine, and REPRO_SANITIZE must not switch it on here
    gpu = build_gpu(get_config(config), sim=Simulator(sanitizer=None))
    result = gpu.run(kernel)
    assert result.tbs_completed == len(kernel.tbs)
    del gpu
    assert gc.collect() == 0


def test_second_kernel_then_free(collector_off):
    kernel = make_benchmark("atax", "micro", 0)
    gc.collect()
    gpu = build_gpu(get_config("partition_sharing"), sim=Simulator(sanitizer=None))
    gpu.run(kernel)
    # the machine's counters accumulate across kernels
    assert gpu.run(kernel).tbs_completed == 2 * len(kernel.tbs)
    del gpu
    assert gc.collect() == 0


def test_diagnostic_hook_is_weak():
    sim = Simulator(sanitizer=None)
    gpu = build_gpu(get_config("baseline"), sim=sim)
    assert "TBs remaining=0" in sim.livelock_diagnostics()
    del gpu
    gc.collect()
    # the hook no longer keeps the GPU alive; a freed GPU is reported,
    # not raised, by the diagnostics
    assert "the GPU was freed" in sim.livelock_diagnostics()
