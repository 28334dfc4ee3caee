"""Lightweight execution tracing.

The tracer records ``(time, category, payload)`` tuples.  It backs the
KernelShark-style timeline used to reproduce Figure 3 (stalled running task)
and is handy when debugging scheduler interactions.  Tracing is off by
default — the hot paths call :meth:`Tracer.record` unconditionally, so the
disabled path must stay cheap (a single attribute check).
"""

from __future__ import annotations

from typing import Iterable, List, NamedTuple, Optional, Set


class TraceRecord(NamedTuple):
    time: int
    category: str
    payload: tuple


class Tracer:
    """Append-only trace buffer with per-category filtering."""

    def __init__(self, enabled: bool = False, categories: Optional[Iterable[str]] = None):
        self.enabled = enabled
        self.categories: Optional[Set[str]] = set(categories) if categories else None
        self.records: List[TraceRecord] = []

    def record(self, time: int, category: str, *payload) -> None:
        if not self.enabled:
            return
        if self.categories is not None and category not in self.categories:
            return
        self.records.append(TraceRecord(time, category, payload))

    def clear(self) -> None:
        self.records.clear()

    def by_category(self, category: str) -> List[TraceRecord]:
        return [r for r in self.records if r.category == category]

