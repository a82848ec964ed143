"""Slow-query log: auto-captured evidence for queries that blew a budget.

The DB2 analogue is the performance trace one turns on *after* noticing a
problem; here ``Database.execute_plan`` — which every query runs through —
checks each query's counters against the ``EngineConfig.slow_query_*``
thresholds and, for offenders, keeps the whole story — chosen access plan,
span tree, counters, and which thresholds were exceeded — in a bounded ring
buffer (``Database.slow_queries``).  Queries under threshold leave no trace
behind.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from repro.obs.export import span_to_dict
from repro.obs.tracer import Span


@dataclass(frozen=True)
class SlowQueryRecord:
    """One captured slow query."""

    table: str
    column: str
    path: str
    method: str
    rows: int
    #: Counters the executing thread added over the query's execution and
    #: DocID join (planning is not included).
    counters: dict[str, int] = field(default_factory=dict)
    #: ``{counter name: (observed delta, threshold)}`` for every threshold
    #: the query exceeded.
    exceeded: dict[str, tuple[int, int]] = field(default_factory=dict)
    #: The planner's explanation of the chosen access plan.
    plan_text: str = ""
    #: The query's ``db.xpath`` span (root of the span tree it captured).
    root: Span = field(default_factory=lambda: Span("slow_query"))

    def format(self) -> str:
        """Human-readable rendering (report CLI / debugging)."""
        lines = [f"SLOW QUERY {self.path!r} on {self.table}.{self.column} "
                 f"[{self.method}] rows={self.rows}"]
        for name, (value, limit) in sorted(self.exceeded.items()):
            lines.append(f"  exceeded {name}: {value} > {limit}")
        lines.extend("  " + line for line in self.plan_text.splitlines())
        lines.append("  trace:")
        lines.extend("    " + line for line in self.root.format().splitlines())
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-safe rendering (exporters and artifacts)."""
        return {
            "table": self.table,
            "column": self.column,
            "path": self.path,
            "method": self.method,
            "rows": self.rows,
            "counters": dict(sorted(self.counters.items())),
            "exceeded": {name: [value, limit]
                         for name, (value, limit)
                         in sorted(self.exceeded.items())},
            "plan": self.plan_text,
            "trace": span_to_dict(self.root),
        }


class SlowQueryLog:
    """Bounded ring buffer of :class:`SlowQueryRecord` (newest kept)."""

    def __init__(self, capacity: int = 32) -> None:
        self.capacity = capacity
        self._ring: deque[SlowQueryRecord] = deque(maxlen=max(1, capacity))
        self.captured = 0

    def emit(self, record: SlowQueryRecord) -> None:
        """Append one record (dropping the oldest when full)."""
        self._ring.append(record)
        self.captured += 1

    def records(self) -> list[SlowQueryRecord]:
        """Buffered records, oldest first."""
        return list(self._ring)

    def __len__(self) -> int:
        return len(self._ring)

    def __iter__(self) -> Iterator[SlowQueryRecord]:
        return iter(self._ring)
