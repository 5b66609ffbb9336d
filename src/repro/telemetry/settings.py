"""Per-cell telemetry settings, propagated into supervised workers.

A :class:`TelemetrySettings` rides on the (picklable)
:class:`~repro.engine.supervision.CellSpec`, so a forked worker builds
exactly the tracer/sampler the parent asked for and writes its trace to
the per-cell path the parent will merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional


@dataclass(frozen=True)
class TelemetrySettings:
    """What telemetry one simulation cell should produce.

    ``trace_path`` — write a Chrome trace-event JSON file there
    (``None`` disables tracing; the disabled hot path is free);
    ``sample_every`` — snapshot time-series counters every N cycles
    into ``RunResult.timeseries`` (``None`` disables sampling).
    """

    trace_path: Optional[str] = None
    sample_every: Optional[int] = None

    def __post_init__(self) -> None:
        if self.sample_every is not None and self.sample_every <= 0:
            raise ValueError(
                f"sample_every must be positive, got {self.sample_every}"
            )

    @property
    def active(self) -> bool:
        return self.trace_path is not None or self.sample_every is not None
