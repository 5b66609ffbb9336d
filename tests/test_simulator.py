"""Tests for the simulation driver and warp runtime state machine."""

import pytest

from repro.arch.kernel import MemoryInstruction, WarpTrace
from repro.arch.warp import WarpRuntime
from repro.engine.simulator import LivelockError, SimulationError, Simulator
from repro.sanitizer.core import STRICT_SWEEP_INTERVAL, Sanitizer


class TestSimulator:
    def test_run_drains_queue(self):
        sim = Simulator()
        seen = []
        sim.queue.post(1.0, seen.append, 1)
        sim.queue.post(5.0, seen.append, 2)
        end = sim.run()
        assert seen == [1, 2]
        assert end == 5.0
        assert sim.events_run == 2

    def test_event_budget_detects_livelock(self):
        sim = Simulator(max_events=100)

        def respawn():
            sim.queue.post(sim.now + 1.0, respawn)

        sim.queue.post(0.0, respawn)
        with pytest.raises(SimulationError):
            sim.run()

    def test_stats_shared_registry(self):
        sim = Simulator()
        sim.stats.group("a").counter("x").inc()
        assert sim.stats.dump()["a"]["x"] == 1


def make_warp(transactions_per_instr, n_instr=2):
    instrs = [
        MemoryInstruction(1.0, tuple(range(0, 128 * k, 128)) or (0,))
        for k in [transactions_per_instr] * n_instr
    ]
    trace = WarpTrace(instrs)

    class TB:
        hw_tb_id = 0

    return WarpRuntime(trace, warp_id=0, tb=TB(), age=0)


class TestWarpRuntime:
    # the SM's grant advances ``tx_issued`` itself, once per transaction
    # (``StreamingMultiprocessor._on_grant``); the tests do the same

    def test_single_transaction_lifecycle(self):
        warp = make_warp(1, n_instr=2)
        assert not warp.done
        warp.begin_instruction()
        warp.tx_issued += 1
        assert warp.transaction_done()      # instruction retires
        assert warp.pc == 1
        warp.begin_instruction()
        warp.tx_issued += 1
        assert warp.transaction_done()
        assert warp.done

    def test_multi_transaction_join(self):
        warp = make_warp(3, n_instr=1)
        instr = warp.begin_instruction()
        assert len(instr.transactions) == 3
        for _ in range(3):
            warp.tx_issued += 1
        assert not warp.transaction_done()
        assert not warp.transaction_done()
        assert warp.transaction_done()
        assert warp.done

    def test_issue_pointer_resets_between_instructions(self):
        warp = make_warp(2, n_instr=2)
        warp.begin_instruction()
        warp.tx_issued += 1
        warp.tx_issued += 1
        warp.transaction_done()
        warp.transaction_done()
        assert warp.tx_issued == 0
        assert warp.pc == 1

    def test_empty_trace_is_done_immediately(self):
        class TB:
            hw_tb_id = 0

        warp = WarpRuntime(WarpTrace([]), 0, TB(), 0)
        assert warp.done
        assert warp.current_instruction() is None

    def test_instructions_remaining(self):
        warp = make_warp(1, n_instr=5)
        warp.begin_instruction()
        warp.tx_issued += 1
        warp.transaction_done()
        assert len(warp.trace.instructions) - warp.pc == 4


class TestForwardProgressWatchdog:
    def _respawning_sim(self, **kwargs):
        sim = Simulator(**kwargs)

        def respawn():
            sim.queue.post(sim.now + 1.0, respawn)

        sim.queue.post(0.0, respawn)
        return sim

    def test_no_progress_raises_livelock(self):
        sim = self._respawning_sim(progress_window=50)
        with pytest.raises(LivelockError):
            sim.run()

    def test_progress_marks_reset_the_window(self):
        sim = Simulator(progress_window=50)
        seen = []

        def tick():
            seen.append(sim.events_run)
            sim.note_progress()           # real work every event
            if len(seen) < 200:
                sim.queue.post(sim.now + 1.0, tick)

        sim.queue.post(0.0, tick)
        sim.run()                         # 200 events >> window of 50
        assert len(seen) == 200
        assert "progress_marks=200" in sim.livelock_diagnostics()

    def test_livelock_error_carries_diagnostics(self):
        sim = self._respawning_sim(progress_window=10)
        sim.add_diagnostic_hook(lambda: "component: 3 TBs stuck")
        with pytest.raises(LivelockError) as info:
            sim.run()
        message = str(info.value)
        assert "pending events" in message
        assert "next events" in message
        assert "component: 3 TBs stuck" in message

    def test_failing_diagnostic_hook_does_not_mask_livelock(self):
        sim = self._respawning_sim(progress_window=10)

        def broken():
            raise RuntimeError("hook exploded")

        sim.add_diagnostic_hook(broken)
        with pytest.raises(LivelockError) as info:
            sim.run()
        assert "diagnostic hook failed" in str(info.value)

    def test_livelock_is_simulation_error(self):
        assert issubclass(LivelockError, SimulationError)
        assert LivelockError.error_class == "livelock"

    def test_max_events_backstop_still_enforced(self):
        # even a model that dutifully notes progress cannot run forever
        sim = Simulator(max_events=100, progress_window=10)

        def busy():
            sim.note_progress()
            sim.queue.post(sim.now + 1.0, busy)

        sim.queue.post(0.0, busy)
        with pytest.raises(LivelockError):
            sim.run()


class TestOneDrainLoop:
    """A sanitized run drains through the same batched loop as a plain
    one: each batch stops at the nearest of the watchdog, max_events and
    sweep deadlines, so every check fires on the same event index."""

    @staticmethod
    def _chain(sim, n, note_progress=False):
        def step(i):
            if note_progress:
                sim.note_progress()
            if i + 1 < n:
                sim.queue.post(sim.now + 1.0, step, i + 1)

        sim.queue.post(0.0, step, 0)

    @pytest.mark.parametrize(
        "limits",
        [
            {"progress_window": 2 * STRICT_SWEEP_INTERVAL + 5},
            {"max_events": STRICT_SWEEP_INTERVAL + 3, "progress_window": 10},
        ],
    )
    def test_livelock_trips_on_the_same_event_sanitized_or_not(self, limits):
        tripped = []
        for sanitizer in (None, Sanitizer("strict")):
            sim = Simulator(sanitizer=sanitizer, **limits)
            self._chain(
                sim, 10**9, note_progress="max_events" in limits
            )
            with pytest.raises(LivelockError):
                sim.run()
            tripped.append(sim.events_run)
        expected = limits.get("max_events", limits["progress_window"]) + 1
        assert tripped == [expected, expected]

    @pytest.mark.parametrize(
        "n", [1, STRICT_SWEEP_INTERVAL, 3 * STRICT_SWEEP_INTERVAL + 17]
    )
    def test_strict_sweeps_every_interval_plus_final(self, n):
        sanitizer = Sanitizer("strict")
        sim = Simulator(sanitizer=sanitizer)
        self._chain(sim, n)
        sim.run()
        assert sim.events_run == n
        assert sanitizer.sweeps == n // STRICT_SWEEP_INTERVAL + 1
