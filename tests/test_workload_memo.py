"""Tests for the per-process kernel memo behind ``make_benchmark``.

The memo hands every caller the same kernel object, so the contract is:
one object per ``(name, scale, seed)``, a registry change forgets every
kernel, failures are never remembered, and nothing a simulation does
changes a shared kernel.
"""

import hashlib

import pytest

from repro.engine.errors import WorkloadError
from repro.experiments.configs import get_config
from repro.system import build_gpu
from repro.tenancy import PartitionMode, TenancySpec, build_tenant_gpu
from repro.workloads import make_benchmark, register_benchmark, unregister_benchmark
from repro.workloads import registry


def fingerprint(kernel) -> str:
    """sha256 over every field of the kernel and of each instruction."""
    h = hashlib.sha256()
    h.update(repr((
        kernel.name, kernel.threads_per_tb, kernel.registers_per_thread,
        kernel.shared_mem_per_tb, kernel.warp_size, len(kernel.tbs),
    )).encode())
    for tb in kernel.tbs:
        h.update(repr((tb.tb_index, len(tb.warps))).encode())
        for warp in tb.warps:
            h.update(repr(len(warp.instructions)).encode())
            for instr in warp.instructions:
                h.update(repr((
                    instr.compute_gap, instr.transactions, instr.is_write,
                )).encode())
    return h.hexdigest()


@pytest.fixture
def cold_memo():
    """Start (and leave) the test with an empty memo."""
    registry._KERNELS.clear()
    yield
    registry._KERNELS.clear()


class TestIdentity:
    def test_same_key_returns_same_object(self):
        assert make_benchmark("nw", "micro", 0) is make_benchmark(
            "nw", scale="micro", seed=0
        )

    def test_other_seed_or_scale_is_another_kernel(self):
        kernel = make_benchmark("nw", "micro", 0)
        assert make_benchmark("nw", "micro", 1) is not kernel
        assert make_benchmark("nw", "tiny", 0) is not kernel

    def test_thread_blocks_are_never_shared(self):
        kernel = make_benchmark("gemm", "micro")
        assert len({id(tb) for tb in kernel.tbs}) == len(kernel.tbs)

    def test_traces_are_interned_tuples(self):
        kernel = make_benchmark("gemm", "micro")
        instrs = [
            instr
            for tb in kernel.tbs for warp in tb.warps
            for instr in warp.instructions
        ]
        assert all(
            isinstance(warp.instructions, tuple)
            for tb in kernel.tbs for warp in tb.warps
        )
        # equal instructions are one object
        assert len({id(i) for i in instrs}) == len(set(instrs)) < len(instrs)


class TestInvalidation:
    def test_register_and_unregister_clear_the_memo(self):
        kernel = make_benchmark("nw", "micro")
        register_benchmark("memo_probe", lambda scale, seed: kernel)
        try:
            after_register = make_benchmark("nw", "micro")
            assert after_register is not kernel
        finally:
            unregister_benchmark("memo_probe")
        assert make_benchmark("nw", "micro") is not after_register

    def test_failing_factory_is_not_cached(self):
        calls = []

        def flaky(scale, seed):
            calls.append(scale)
            if len(calls) == 1:
                raise ValueError("transient generator failure")
            return make_benchmark("nw", scale, seed)

        register_benchmark("memo_flaky", flaky)
        try:
            with pytest.raises(WorkloadError):
                make_benchmark("memo_flaky", "micro")
            kernel = make_benchmark("memo_flaky", "micro")
            assert make_benchmark("memo_flaky", "micro") is kernel
        finally:
            unregister_benchmark("memo_flaky")
        assert len(calls) == 2

    def test_non_value_error_is_not_cached(self):
        calls = []

        def broken(scale, seed):
            calls.append(scale)
            raise RuntimeError("generator bug")

        register_benchmark("memo_broken", broken)
        try:
            for _ in range(2):
                with pytest.raises(RuntimeError):
                    make_benchmark("memo_broken", "micro")
        finally:
            unregister_benchmark("memo_broken")
        assert len(calls) == 2


class TestReadOnly:
    @pytest.mark.parametrize(
        "config", ["baseline", "partition_sharing", "compression"]
    )
    def test_runs_leave_the_kernel_unchanged(self, config):
        kernel = make_benchmark("bfs", "micro")
        before = fingerprint(kernel)
        build_gpu(get_config(config)).run(kernel)
        assert fingerprint(kernel) == before
        assert make_benchmark("bfs", "micro") is kernel

    def test_two_tenant_mix_leaves_the_kernel_unchanged(self):
        kernel = make_benchmark("bfs", "micro")
        before = fingerprint(kernel)
        spec = TenancySpec(
            mix=("bfs", "bfs"), mode=PartitionMode.SHARED_TLB, scale="micro"
        )
        result = build_tenant_gpu(spec, get_config("baseline")).run_tenants()
        assert result.combined.tbs_completed == 2 * len(kernel.tbs)
        assert fingerprint(kernel) == before

    def test_memo_hit_matches_a_cold_build(self, cold_memo):
        config = get_config("partition_sharing")
        hit = make_benchmark("atax", "micro")
        assert make_benchmark("atax", "micro") is hit
        hit_result = build_gpu(config).run(hit).to_dict()
        registry._KERNELS.clear()
        cold = make_benchmark("atax", "micro")
        assert cold is not hit
        assert fingerprint(cold) == fingerprint(hit)
        assert build_gpu(config).run(cold).to_dict() == hit_result
