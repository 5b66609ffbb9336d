"""Unit tests for the GPU substrate: coalescer, kernel model, TB ids,
GTO issue port."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.arch.coalescer import coalesce
from repro.arch.config import GPUConfig
from repro.arch.kernel import (
    Kernel,
    MemoryInstruction,
    TBTrace,
    WarpTrace,
    validate_kernel,
)
from repro.arch.thread_block import TBIDAllocator
from repro.arch.warp import WarpRuntime
from repro.arch.warp_scheduler import GTOIssuePort
from repro.engine.simulator import Simulator


class TestCoalescer:
    def test_fully_coalesced_warp(self):
        addrs = [i * 4 for i in range(32)]  # 128 consecutive bytes
        assert coalesce(addrs) == [0]

    def test_fully_divergent_warp(self):
        addrs = [i * 4096 for i in range(32)]
        assert len(coalesce(addrs)) == 32

    def test_order_is_first_appearance(self):
        assert coalesce([512, 0, 513]) == [512, 0]

    def test_invalid_line_size(self):
        with pytest.raises(ValueError):
            coalesce([0], line_bytes=0)

    def test_non_power_of_two_line_refused(self):
        with pytest.raises(ValueError, match="power of two"):
            coalesce([0, 200], line_bytes=96)

    @given(st.lists(st.integers(min_value=0, max_value=1 << 30), min_size=1,
                    max_size=32))
    @settings(max_examples=50)
    def test_property_transactions_cover_all_threads(self, addrs):
        txs = set(coalesce(addrs))
        assert len(txs) <= len(addrs)
        for a in addrs:
            assert (a // 128) * 128 in txs
        for t in txs:
            assert t % 128 == 0


class TestKernelModel:
    def test_occupancy_limited_by_threads(self):
        k = Kernel("k", threads_per_tb=512, tbs=[],
                   registers_per_thread=1)
        assert k.occupancy(GPUConfig()) == 4  # 2048 / 512

    def test_occupancy_limited_by_tb_cap(self):
        k = Kernel("k", threads_per_tb=32, tbs=[], registers_per_thread=1)
        assert k.occupancy(GPUConfig()) == 16

    def test_occupancy_limited_by_registers(self):
        k = Kernel("k", threads_per_tb=256, tbs=[],
                   registers_per_thread=32)  # 32 KB per TB of 64 KB file
        assert k.occupancy(GPUConfig()) == 2

    def test_occupancy_limited_by_shared_memory(self):
        k = Kernel("k", threads_per_tb=64, tbs=[], registers_per_thread=1,
                   shared_mem_per_tb=16 * 1024)
        assert k.occupancy(GPUConfig()) == 3  # 48 KB / 16 KB

    def test_unschedulable_kernel_raises(self):
        k = Kernel("k", threads_per_tb=4096, tbs=[])
        with pytest.raises(ValueError):
            k.occupancy(GPUConfig())

    def test_instruction_validation(self):
        with pytest.raises(ValueError):
            MemoryInstruction(-1.0, (0,))
        with pytest.raises(ValueError):
            MemoryInstruction(0.0, ())

    def test_validate_kernel_rejects_empty(self):
        with pytest.raises(ValueError):
            validate_kernel(Kernel("k", threads_per_tb=32, tbs=[]))

    def test_tb_interleaved_addresses_round_robin(self):
        w0 = WarpTrace([MemoryInstruction(0.0, (0, 128)),
                        MemoryInstruction(0.0, (256,))])
        w1 = WarpTrace([MemoryInstruction(0.0, (512,))])
        tb = TBTrace(0, [w0, w1])
        assert list(tb.interleaved_addresses()) == [0, 512, 128, 256]

    def test_counts(self):
        w = WarpTrace([MemoryInstruction(0.0, (0, 128))])
        tb = TBTrace(0, [w])
        assert len(w.instructions) == 1
        assert tb.num_transactions == 2


class TestTBIDAllocator:
    def test_ids_unique_and_recycled(self):
        alloc = TBIDAllocator(4)
        ids = [alloc.allocate() for _ in range(4)]
        assert sorted(ids) == [0, 1, 2, 3]
        with pytest.raises(RuntimeError):
            alloc.allocate()
        alloc.release(2)
        assert alloc.allocate() == 2

    def test_smallest_id_first(self):
        alloc = TBIDAllocator(4)
        assert alloc.allocate() == 0
        assert alloc.allocate() == 1

    def test_double_release_rejected(self):
        alloc = TBIDAllocator(2)
        tb = alloc.allocate()
        alloc.release(tb)
        with pytest.raises(ValueError):
            alloc.release(tb)

    def test_out_of_range_release(self):
        with pytest.raises(ValueError):
            TBIDAllocator(2).release(5)


class _FakeTB:
    hw_tb_id = 0
    class trace:  # noqa: D401 - minimal stand-in
        tb_index = 0


def make_warp(age, n_instr=1):
    trace = WarpTrace([MemoryInstruction(0.0, (0,)) for _ in range(n_instr)])
    return WarpRuntime(trace, warp_id=age, tb=_FakeTB(), age=age)


class TestGTOIssuePort:
    def test_serializes_issue(self):
        sim = Simulator()
        port = GTOIssuePort(sim, issue_interval=2.0)
        grants = []
        for age in range(3):
            port.request(make_warp(age), lambda t, a=age: grants.append((a, t)))
        sim.run()
        assert grants == [(0, 0.0), (1, 2.0), (2, 4.0)]

    def test_greedy_prefers_last_issued(self):
        sim = Simulator()
        port = GTOIssuePort(sim, issue_interval=1.0)
        order = []
        w0, w1 = make_warp(0, 2), make_warp(1, 2)

        def on_grant(w):
            def cb(_t):
                order.append(w.age)
                if len(order) < 4 and w.pc == 0:
                    w.pc += 1
                    port.request(w, on_grant(w))
            return cb

        # Oldest (w0) issues first, then re-requests: greedy keeps w0.
        port.request(w0, on_grant(w0))
        port.request(w1, on_grant(w1))
        sim.run()
        assert order[0] == 0
        assert order[1] == 0  # greedy: w0 again, then oldest w1

    def test_oldest_wins_when_greedy_absent(self):
        sim = Simulator()
        port = GTOIssuePort(sim, issue_interval=1.0)
        order = []
        port.request(make_warp(7), lambda t: order.append(7))
        port.request(make_warp(3), lambda t: order.append(3))
        sim.run()
        # Both waiting at arbitration time: lower age (3) goes first only
        # if it was pending before the first grant; FIFO arbitration at
        # t=0 sees both -> oldest first.
        assert order == [3, 7]

    def test_duplicate_request_rejected(self):
        sim = Simulator()
        port = GTOIssuePort(sim)
        w = make_warp(0)
        port.request(w, lambda t: None)
        with pytest.raises(RuntimeError):
            port.request(w, lambda t: None)

    def test_invalid_interval(self):
        with pytest.raises(ValueError):
            GTOIssuePort(Simulator(), issue_interval=0.0)
