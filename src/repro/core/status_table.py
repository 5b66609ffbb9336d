"""TLB status table in the TB scheduler (paper §IV-A).

The hardware is a 16-entry table, one entry per SM, each holding
⟨TLB_hits, TLB_total⟩ 32-bit counters that the SMs update (136 bytes
total).  The scheduler probes it for each SM's *instant* L1 TLB miss
rate.  We model "instant" as the miss rate over the window since the
previous refresh, smoothed with an EMA so a handful of accesses between
two back-to-back scheduling decisions doesn't produce a noisy estimate.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence


@dataclass
class _Entry:
    hits: int = 0
    total: int = 0
    ema_miss_rate: Optional[float] = None


class TLBStatusTable:
    """Scheduler-side table of per-SM TLB statistics."""

    def __init__(self, num_sms: int, ema_alpha: float = 0.5) -> None:
        if num_sms <= 0:
            raise ValueError(f"num_sms must be positive, got {num_sms}")
        if not 0.0 < ema_alpha <= 1.0:
            raise ValueError(f"ema_alpha must be in (0, 1], got {ema_alpha}")
        self.num_sms = num_sms
        self.ema_alpha = ema_alpha
        self._entries: List[_Entry] = [_Entry() for _ in range(num_sms)]

    def update(self, sm_id: int, hits: int, total: int) -> None:
        """Record an SM's cumulative ⟨hits, total⟩ counters.

        Deltas since the previous update feed the instant-miss-rate EMA.
        Counters are cumulative and monotonic, exactly what an SM
        streaming its two 32-bit counters would deliver.
        """
        entry = self._entries[sm_id]
        delta_total = total - entry.total
        delta_hits = hits - entry.hits
        if delta_total < 0 or delta_hits < 0:
            raise ValueError(f"counters for SM{sm_id} went backwards")
        if delta_total > 0:
            window_miss = 1.0 - (delta_hits / delta_total)
            if entry.ema_miss_rate is None:
                entry.ema_miss_rate = window_miss
            else:
                entry.ema_miss_rate = (
                    self.ema_alpha * window_miss
                    + (1.0 - self.ema_alpha) * entry.ema_miss_rate
                )
        entry.hits = hits
        entry.total = total

    def refresh_from(self, sms: Sequence) -> None:
        """Pull live counters from SM models (the hardware update path)."""
        for sm in sms:
            self.update(sm.sm_id, sm.l1_tlb_hits, sm.l1_tlb_accesses)

    def miss_rate(self, sm_id: int) -> Optional[float]:
        """Instant miss rate of one SM, or ``None`` before any traffic."""
        return self._entries[sm_id].ema_miss_rate

    def mean_miss_rate(self) -> Optional[float]:
        """Mean of the instant miss rates across SMs with data."""
        rates = [e.ema_miss_rate for e in self._entries if e.ema_miss_rate is not None]
        if not rates:
            return None
        return sum(rates) / len(rates)

    def snapshot(self) -> List[Optional[float]]:
        return [e.ema_miss_rate for e in self._entries]

    @property
    def size_bytes(self) -> int:
        """Hardware cost of the table (paper: 136 bytes for 16 SMs)."""
        # 16 entries x (4-bit SM id + 2 x 32-bit counters) = 16 x 68 bits
        return (self.num_sms * (4 + 64) + 7) // 8
