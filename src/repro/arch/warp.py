"""Warp runtime state.

A :class:`WarpRuntime` is the event-driven execution state of one warp:
which instruction it is at, how many of that instruction's transactions
are still outstanding, and when it next becomes ready to issue.  The SM
drives these state machines; this class holds no timing policy itself.
"""

from __future__ import annotations

from typing import Optional

from .kernel import MemoryInstruction, WarpTrace


class WarpRuntime:
    """Execution state of one resident warp."""

    __slots__ = (
        "trace",
        "warp_id",
        "tb",
        "age",
        "pc",
        "tx_issued",
        "outstanding",
        "ready_time",
        "done",
        "request_cb",
        "grant_cb",
        "complete_cb",
    )

    def __init__(self, trace: WarpTrace, warp_id: int, tb, age: int) -> None:
        self.trace = trace
        self.warp_id = warp_id
        self.tb = tb                 # owning TBRuntime
        self.age = age               # global dispatch order, for GTO "oldest"
        self.pc = 0                  # index of the next instruction
        self.tx_issued = 0           # transactions issued for current instr
        self.outstanding = 0         # transactions in flight for current instr
        self.ready_time = 0.0        # earliest time the warp can issue
        self.done = len(trace.instructions) == 0
        # issue/completion closures, bound once by the SM at dispatch so
        # the per-transaction hot path allocates no lambdas, and dropped
        # (with ``tb``) when the TB finishes
        self.request_cb = None
        self.grant_cb = None
        self.complete_cb = None

    def current_instruction(self) -> Optional[MemoryInstruction]:
        if self.pc >= len(self.trace.instructions):
            return None
        return self.trace.instructions[self.pc]

    def begin_instruction(self) -> MemoryInstruction:
        """Mark the current instruction as issuing; returns it."""
        instr = self.trace.instructions[self.pc]
        self.outstanding = len(instr.transactions)
        self.tx_issued = 0
        return instr

    def transaction_done(self) -> bool:
        """One transaction completed; True when the instruction retires."""
        self.outstanding -= 1
        if self.outstanding == 0:
            self.pc += 1
            self.tx_issued = 0
            if self.pc >= len(self.trace.instructions):
                self.done = True
            return True
        return False

    def __repr__(self) -> str:
        return (
            f"WarpRuntime(w{self.warp_id} tb{self.tb.hw_tb_id if self.tb else '?'} "
            f"pc={self.pc}/{len(self.trace.instructions)})"
        )
