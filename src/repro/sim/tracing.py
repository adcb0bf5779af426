"""Structured event tracing.

Protocol modules emit trace records (message sent, head selected, cell
shifted, ...) through a :class:`Tracer`.  Traces power three things:

* debugging — a readable log of a run;
* the analysis package — convergence detection works by watching for
  the last *structure-changing* trace record;
* benchmarks — message/han­dshake counts per experiment.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

__all__ = ["TraceRecord", "Tracer"]


@dataclass(frozen=True, slots=True)
class TraceRecord:
    """One traced occurrence.

    Attributes:
        time: virtual time of the occurrence.
        category: dot-separated kind, e.g. ``"msg.send"`` or
            ``"head.selected"``.
        node: id of the node the record concerns (or ``None``).
        details: free-form payload for human inspection and tests.
    """

    time: float
    category: str
    node: Optional[int] = None
    details: Tuple[Tuple[str, Any], ...] = ()

    def detail(self, key: str, default: Any = None) -> Any:
        """Look up one detail by key."""
        for k, v in self.details:
            if k == key:
                return v
        return default


class Tracer:
    """Collects :class:`TraceRecord` objects and summary counters.

    Recording full records can be disabled (``keep_records=False``) for
    large benchmark runs where only the counters matter; counters are
    always maintained.

    Record storage is bounded by ``capacity``.  Once the bound is hit
    further records are dropped (counters keep counting), so
    :meth:`by_category` can return fewer records than :meth:`count`
    reports.  Truncation is signalled rather than silent: the
    ``truncated`` flag flips to ``True`` and a one-shot
    ``trace.capacity`` counter is recorded the first time a record is
    dropped.

    Fast-path contract: when ``enabled`` is ``False`` nothing is
    active — no records, no counters, no listeners — and :meth:`emit`
    returns after a single predicate.  This is the cheap-disable path
    for emit-heavy callers (``Radio`` emits up to three records per
    broadcast hop).  Whenever the tracer is enabled, counters and
    ``last_time_by_category`` are exact — the fast path never drops a
    subset of an enabled tracer's accounting.
    """

    def __init__(
        self,
        keep_records: bool = True,
        capacity: int = 2_000_000,
        enabled: bool = True,
    ):
        self.keep_records = keep_records
        self.capacity = capacity
        self.enabled = enabled
        self.records: List[TraceRecord] = []
        self.counts: Counter = Counter()
        self.last_time_by_category: Dict[str, float] = {}
        self.truncated = False
        self._listeners: List[Callable[[TraceRecord], None]] = []

    def emit(
        self,
        time: float,
        category: str,
        node: Optional[int] = None,
        **details: Any,
    ) -> None:
        """Record an occurrence (one-predicate no-op when disabled)."""
        if not self.enabled:
            return
        self.counts[category] += 1
        self.last_time_by_category[category] = time
        record: Optional[TraceRecord] = None
        if self.keep_records:
            if len(self.records) < self.capacity:
                record = TraceRecord(
                    time, category, node, tuple(details.items())
                )
                self.records.append(record)
            elif not self.truncated:
                self.truncated = True
                self.counts["trace.capacity"] += 1
                self.last_time_by_category["trace.capacity"] = time
        if self._listeners:
            if record is None:
                record = TraceRecord(
                    time, category, node, tuple(details.items())
                )
            for listener in self._listeners:
                listener(record)

    def subscribe(self, listener: Callable[[TraceRecord], None]) -> None:
        """Register a callback invoked for every record."""
        self._listeners.append(listener)

    def by_category(self, category: str) -> Iterator[TraceRecord]:
        """All stored records with the given category."""
        return (r for r in self.records if r.category == category)

    def count(self, category: str) -> int:
        """How many records of ``category`` were emitted (stored or not)."""
        return self.counts[category]

    def count_prefix(self, prefix: str) -> int:
        """Total count over all categories starting with ``prefix``."""
        return sum(v for k, v in self.counts.items() if k.startswith(prefix))

    def last_time(self, *categories: str) -> Optional[float]:
        """Latest emission time over the given categories (or all)."""
        keys = categories or tuple(self.last_time_by_category)
        times = [
            self.last_time_by_category[k]
            for k in keys
            if k in self.last_time_by_category
        ]
        return max(times) if times else None

    def last_time_prefix(self, prefix: str) -> Optional[float]:
        """Latest emission time over categories starting with ``prefix``."""
        times = [
            t
            for k, t in self.last_time_by_category.items()
            if k.startswith(prefix)
        ]
        return max(times) if times else None

    def clear(self) -> None:
        """Drop all stored records and counters."""
        self.records.clear()
        self.counts.clear()
        self.last_time_by_category.clear()
        self.truncated = False
