"""Query-level observability: hierarchical tracing and EXPLAIN ANALYZE.

The paper's infrastructure box (Fig. 1) lists *instrumentation* among the
relational assets the XML engine inherits.  :mod:`repro.core.stats` provides
the flat counter bag and its one attribution mechanism, a per-thread stack
of frames (``StatsRegistry.frame``) that every ``add`` also bumps; this
package adds the hierarchical view on top of it:

* :class:`~repro.obs.tracer.Span` / :class:`~repro.obs.tracer.Tracer` — a
  span tree, installed on one thread, whose every node is a frame holding
  the counters its thread added between enter and exit, so "how many page
  reads did this B+tree probe cost" falls out of the existing accounting;
* :class:`~repro.obs.explain.ExplainResult` — the DB2-style EXPLAIN ANALYZE
  surface returned by :meth:`repro.core.engine.Database.explain_analyze`:
  the chosen :class:`~repro.query.plan.AccessPlan` annotated with actual
  row/entry/page counts per operator;
* :mod:`repro.obs.export` — JSON export of span trees, used by the
  benchmarks to attach trace artifacts to BENCH runs;
* :class:`~repro.obs.monitor.Monitor` — DISPLAY-style snapshots of live
  engine state (buffer pool, lock table + waits-for DOT, WAL, transaction
  table, per-table-space/per-index footprints);
* :class:`~repro.obs.slowlog.SlowQueryLog` — bounded ring of offender
  queries (plan + span tree + counters), captured in
  ``Database.execute_plan``, which every query runs through;
* :mod:`repro.obs.exporters` — Prometheus-text and JSON exposition of
  counters/gauges/histograms;
* :mod:`repro.obs.waits` — the reading side of the wait clock: per-class
  suspension breakdowns (DB2 accounting class-3 analogue) folded from the
  ``waits.*_us`` counters charged by ``StatsRegistry.wait_timer``;
* :mod:`repro.obs.events` — :class:`~repro.obs.events.EventTrace`, the
  IFCID-style structured event trace (accounting / statistics /
  performance records in per-thread bounded rings) plus the
  statistics-interval :class:`~repro.obs.events.StatsCollector`;
* :mod:`repro.obs.perf` — ``python -m repro.obs.perf``, the wait-state
  profiler over a JSONL trace export (imported lazily — it pulls in the
  serving layer for its live mode, so it is deliberately *not* re-exported
  here);
* :mod:`repro.obs.report` — ``python -m repro.obs.report``, the
  human-readable accounting/statistics report.

Tracing is opt-in: components call ``self.stats.trace("name")`` which is a
reusable no-op unless a :class:`Tracer` is installed on the calling thread,
so the uninstrumented cost is ~zero.
"""

from repro.obs.events import (EventClass, EventRecord, EventTrace,
                              StatsCollector)
from repro.obs.explain import ExplainResult
from repro.obs.export import span_to_dict, write_trace
from repro.obs.exporters import (engine_metrics, metrics_to_dict,
                                 render_prometheus, write_metrics_json,
                                 write_prometheus)
from repro.obs.monitor import Monitor, MonitorSnapshot
from repro.obs.slowlog import SlowQueryLog, SlowQueryRecord
from repro.obs.tracer import Span, Tracer
from repro.obs.waits import (WAIT_CLASS_ORDER, format_breakdown,
                             total_wait_us, wait_breakdown, wait_profile)

__all__ = [
    "EventClass", "EventRecord", "EventTrace", "ExplainResult", "Monitor",
    "MonitorSnapshot", "SlowQueryLog", "SlowQueryRecord", "Span",
    "StatsCollector", "Tracer", "WAIT_CLASS_ORDER", "engine_metrics",
    "format_breakdown", "metrics_to_dict", "render_prometheus",
    "span_to_dict", "total_wait_us", "wait_breakdown", "wait_profile",
    "write_metrics_json", "write_prometheus", "write_trace",
]
