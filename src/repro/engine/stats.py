"""Statistics collection for simulator components.

Every architectural component owns a :class:`StatGroup` registered in a
shared :class:`StatRegistry`.  Stats are plain counters and histograms so
they are cheap to bump on the hot path; derived ratios are computed lazily.
"""

from __future__ import annotations

import json
from collections import defaultdict
from typing import Dict, Iterator, Optional


class Counter:
    """A named monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount

    def reset(self) -> None:
        self.value = 0


class Histogram:
    """A sparse integer-keyed histogram (e.g. power-of-two buckets)."""

    __slots__ = ("name", "buckets")

    def __init__(self, name: str) -> None:
        self.name = name
        self.buckets: Dict[int, int] = defaultdict(int)

    def add(self, key: int, count: int = 1) -> None:
        self.buckets[key] += count

    @property
    def total(self) -> int:
        return sum(self.buckets.values())

    def percentile(self, p: float) -> Optional[int]:
        """Smallest key whose cumulative fraction reaches ``p`` percent.

        ``p`` is in [0, 100]; returns ``None`` on an empty histogram.
        ``percentile(50)`` is the median bucket, ``percentile(100)`` the
        largest populated key.
        """
        if not 0 <= p <= 100:
            raise ValueError(f"percentile must be in [0, 100], got {p}")
        total = self.total
        if total == 0:
            return None
        target = total * (p / 100.0)
        running = 0
        keys = sorted(self.buckets)
        for key in keys:
            running += self.buckets[key]
            if running >= target:
                return key
        return keys[-1]

    def as_dict(self) -> Dict[int, int]:
        return dict(self.buckets)

    def reset(self) -> None:
        self.buckets.clear()


class StatGroup:
    """A namespaced collection of counters and histograms."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._counters: Dict[str, Counter] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str) -> Histogram:
        if name not in self._histograms:
            self._histograms[name] = Histogram(name)
        return self._histograms[name]

    def ratio(self, numerator: str, denominator: str) -> float:
        """``numerator/denominator`` counter ratio; 0.0 when denominator is 0."""
        den = self._counters[denominator].value if denominator in self._counters else 0
        if den == 0:
            return 0.0
        num = self._counters[numerator].value if numerator in self._counters else 0
        return num / den

    def reset(self) -> None:
        for c in self._counters.values():
            c.reset()
        for h in self._histograms.values():
            h.reset()

    def as_dict(self) -> Dict[str, int]:
        return {c.name: c.value for c in self._counters.values()}

    def counter_value(self, name: str) -> Optional[int]:
        """Read a counter without creating it (``None`` when absent).

        The time-series sampler polls many groups for counters that only
        some of them own; a creating read would pollute the registry with
        zero counters and make sampled runs dump differently from
        unsampled ones.
        """
        counter = self._counters.get(name)
        return counter.value if counter is not None else None

    def snapshot(self) -> Dict[str, Dict]:
        """Counters and histogram buckets as one JSON-compatible dict."""
        return {
            "counters": self.as_dict(),
            "histograms": {
                h.name: h.as_dict() for h in self._histograms.values()
            },
        }


class StatRegistry:
    """Registry of all stat groups in one simulation instance."""

    def __init__(self) -> None:
        self._groups: Dict[str, StatGroup] = {}

    def group(self, name: str) -> StatGroup:
        if name not in self._groups:
            self._groups[name] = StatGroup(name)
        return self._groups[name]

    def groups(self) -> Iterator[StatGroup]:
        return iter(self._groups.values())

    def dump(self) -> Dict[str, Dict[str, int]]:
        """Nested ``{group: {counter: value}}`` snapshot of all counters."""
        return {g.name: g.as_dict() for g in self._groups.values()}

    def snapshot(self) -> Dict[str, Dict]:
        """Full snapshot including histograms: ``{group: {counters,
        histograms}}`` (see :meth:`StatGroup.snapshot`)."""
        return {g.name: g.snapshot() for g in self._groups.values()}

    def to_json(self, indent: Optional[int] = None) -> str:
        """Deterministic JSON text of the full registry snapshot."""
        return json.dumps(self.snapshot(), sort_keys=True, indent=indent)
