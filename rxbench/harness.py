"""Runs one workload: set-ups, warm-up, timed window, checks, metrics.

One run of a workload is:

0. One untimed set-up at a tenth of the size, with its warm-up ops: the
   first set-up in a fresh interpreter runs about twice as slow (bytecode
   not yet specialised, heap still growing), and no measured set-up should.
1. At least ``SETUPS`` set-ups, and as many more as fit ``SETUP_SECONDS``,
   each from an empty engine and cleared XPath parse and compile caches:
   engine construction, server start, DDL, corpus load through a
   ``Session`` and index build.  ``setup_s`` is their median.
2. On the first two set-ups and the last, the first ``warmup_ops`` ops of
   the seeded stream.  On single-client workloads their per-op
   engine-counter deltas must be the same on all three (the determinism
   self-check).
3. On the last set-up, the timed window: the clients run the stream on
   from where the warm-up stopped until ``seconds`` have passed.  No
   wrappers are installed; the end-to-end metrics and the per-layer counts
   come from here.
4. With tracing asked for, one more set-up and warm-up, then the same
   window with the :class:`~ledger.Ledger` installed; the per-layer times
   come from there.  The wrappers are removed and checked gone afterwards.

Every read result, and the final state after writes, is checked against
the workload's model; any mismatch makes the run incorrect.

The end-to-end metrics are client-observed.  The one latency metric the
result line carries is ``op_floor_ms``: each op template's
:data:`FLOOR_PCT`-th percentile latency in the window, averaged with the
template's share of the mix as weight -- the mix's mean latency when
little slows an op down.  On a shared 2-vCPU host the same code runs
20-60% slower for minutes at a time.  When the host is busy only part of
the time, that moves a window's median, tail and throughput by as much,
while the fastest latencies of each template move far less (ten
catalog_scan seeds: IQR/median 0.24 for the read median, 0.04 for the
per-template minimum); when it is busy throughout, every figure moves
together.  A low percentile rather than the minimum: with two clients the
very fastest ops are those that happened not to overlap the other
client's, and how many do varies from run to run.

The median, p90 and throughput are printed beside it.  ``ops_per_s`` and
``commits_per_s`` are medians over blocks of :data:`BLOCK` consecutive
completions; latency percentiles pool every sample of the window.  The
read-only workloads have no writes in their window, so their printed
write figures describe the corpus load: one auto-commit insert per
catalog document, through the same server, on every set-up.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from repro.core.engine import Database
from repro.serve import DatabaseServer
from repro.xpath.cache import clear_caches

from ledger import Ledger
from workloads import CATALOG, Outcome, Workload

SETUPS = 5
#: Set-up time a run spends at least, so that the write figures of a
#: read-only workload (its corpus loads) rest on several seconds of work.
SETUP_SECONDS = 8
#: Percentile of each template's latencies that ``op_floor_ms`` takes.
FLOOR_PCT = 1
#: Completions per block for the throughput metrics: the median over
#: blocks is reported, so a few seconds of a slow machine move it little.
BLOCK = 20
READ, WRITE, INSERT = ("read",), ("insert", "delete", "reprice"), ("insert",)
#: Engine counters whose per-op deltas must repeat exactly across set-ups
#: of a single-client workload.
DETERMINISTIC = ("xscan.events", "btree.entries_scanned", "buffer.hits",
                 "buffer.misses", "exec.candidates")

_clock = time.perf_counter_ns


@dataclass
class Window:
    """What one timed window produced."""

    start_ns: int = 0
    wall_ns: int = 0
    #: (outcome, latency, completion time) per acknowledged op.
    done: list[tuple[Outcome, int, int]] = field(default_factory=list)
    #: Ops the engine failed (shed, deadline, retries exhausted, error).
    failures: list[str] = field(default_factory=list)
    #: Faults of the benchmark's own client loop: the run is void.
    crashes: list[str] = field(default_factory=list)
    counters: dict[str, int] = field(default_factory=dict)
    group_sizes: dict[int, int] = field(default_factory=dict)

    def latencies(self, kinds: tuple[str, ...]) -> list[int]:
        return [ns for outcome, ns, _end in self.done
                if outcome.op.kind in kinds]

    def ends(self, kinds: tuple[str, ...]) -> list[int]:
        return [end for outcome, _ns, end in self.done
                if outcome.op.kind in kinds]

    def count(self, kinds: tuple[str, ...]) -> int:
        return len(self.latencies(kinds))

    @property
    def ops(self) -> int:
        return len(self.done)

    @property
    def rows(self) -> int:
        return sum(len(o.rows) for o, _ns, _end in self.done
                   if o.rows is not None)


class Instance:
    """One set-up of a workload: engine, server, sessions and op streams."""

    def __init__(self, workload_cls: type[Workload], seed: int,
                 scale: float) -> None:
        gc.collect()
        clear_caches()
        #: Latency of every corpus-load insert.
        self.write_samples: list[int] = []
        t0 = _clock()
        self.workload = workload_cls(seed, scale)
        self.db = Database(self.workload.config)
        self.server = DatabaseServer(self.db).start()
        self.sessions = [self.server.session()
                         for _ in range(self.workload.clients)]
        self.workload.setup(self.sessions[0], self.write_samples, _clock)
        self.setup_ns = _clock() - t0
        self.corpus_pages = self.db.disk.page_count
        self.streams = [self.workload.stream(c)
                        for c in range(self.workload.clients)]

    def close(self) -> None:
        for session in self.sessions:
            session.close()
        self.server.shutdown()

    def run(self, max_ops: int | None = None, seconds: float | None = None,
            ledger: Ledger | None = None, probe: list | None = None
            ) -> Window:
        """Run every client until ``max_ops`` each or ``seconds`` pass.

        ``probe`` (single client only) receives each op's deltas of the
        :data:`DETERMINISTIC` counters.
        """
        window = Window()
        stats = self.db.stats
        deadline = None if seconds is None else _clock() + int(seconds * 1e9)
        requests = itertools.count(1)

        def client(index: int) -> None:
            try:
                loop(index)
            except BaseException as error:  # reported, the run is void
                window.crashes.append(
                    f"client {index}: {type(error).__name__}: {error}")

        def loop(index: int) -> None:
            session, stream = self.sessions[index], self.streams[index]
            executed = 0
            while (max_ops is None or executed < max_ops) and \
                    (deadline is None or _clock() < deadline):
                op = next(stream)
                executed += 1
                if ledger is not None:
                    ledger.begin_request(next(requests), op.kind)
                before = probe is not None and [stats.get(n)
                                                for n in DETERMINISTIC]
                t0 = _clock()
                try:
                    outcome = self.workload.execute(session, op, index)
                except Exception as error:  # every failure is reported
                    window.failures.append(
                        f"{op.template}: {type(error).__name__}: {error}")
                    continue
                t1 = _clock()
                window.done.append((outcome, t1 - t0, t1))
                if probe is not None:
                    probe.append((op.template, [
                        stats.get(n) - b for n, b in zip(DETERMINISTIC,
                                                         before)]))

        before = stats.counters()
        group_before = _group_sizes(self.db)
        window.start_ns = t0 = _clock()
        threads = [threading.Thread(target=client, args=(i,),
                                    name=f"client-{i}")
                   for i in range(self.workload.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        window.wall_ns = _clock() - t0
        after = stats.counters()
        window.counters = {name: value - before.get(name, 0)
                           for name, value in after.items()}
        group_after = _group_sizes(self.db)
        window.group_sizes = {bound: n - group_before.get(bound, 0)
                              for bound, n in group_after.items()}
        return window

    def check(self, window: Window) -> list[str]:
        errors = window.crashes + self.workload.check_reads(
            [o for o, _ns, _e in window.done])
        with self.db.latch:
            return errors + self.workload.check_final(self.db)


def _group_sizes(db: Database) -> dict[int, int]:
    histogram = db.stats.histogram("wal.group_size")
    return dict(histogram.buckets()) if histogram is not None else {}


def _pct(values: list[int], q: int) -> float:
    """The q-th percentile of nanosecond samples, in milliseconds."""
    if len(values) < 2:
        return values[0] / 1e6 if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1] / 1e6


def _block_rate(start: int, ends: list[int]) -> float:
    """Completions per second: the median over consecutive blocks of
    :data:`BLOCK` completions, the first block timed from ``start``."""
    marks = [start] + sorted(ends)[BLOCK - 1::BLOCK]
    rates = [BLOCK * 1e9 / (b - a) for a, b in zip(marks, marks[1:])]
    if not rates:
        return len(ends) * 1e9 / (max(ends) - start) if ends else 0.0
    return statistics.median(rates)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    metrics: dict[str, tuple[float, str]]
    notes: list[str]
    #: Printed beside the metrics but not part of the JSON result: the
    #: median, tail and throughput figures, which a partly busy host moves
    #: by more than their bounds, and ``failed_frac``, which is 0 whenever
    #: the run is sound (a bounded metric must never read 0).
    printed: dict[str, tuple[float, str]] = field(default_factory=dict)


def run(workload_cls: type[Workload], seed: int, seconds: float,
        trace: bool, scale: float = 1.0, spans_dir: str | None = None
        ) -> Result:
    errors: list[str] = []
    notes: list[str] = []
    setup_ns: list[int] = []
    write_samples: list[int] = []
    probes: list[list] = []
    cold = Instance(workload_cls, seed, min(scale, 0.1))
    errors += cold.run(max_ops=workload_cls.warmup_ops).crashes
    cold.close()
    count = SETUPS
    index = 0
    while True:
        instance = Instance(workload_cls, seed, scale)
        if index == 0:
            count = max(SETUPS, min(
                4 * SETUPS, int(SETUP_SECONDS * 1e9 / instance.setup_ns)))
        setup_ns.append(instance.setup_ns)
        write_samples += instance.write_samples
        last = index == count - 1
        if index < 2 or last:
            probe: list | None = [] if workload_cls.clients == 1 else None
            warm = instance.run(max_ops=workload_cls.warmup_ops, probe=probe)
            errors += warm.crashes + warm.failures
            if index == 0:
                errors += instance.workload.check_reads(
                    [o for o, _ns, _e in warm.done])
            probes.append(probe)
        if last:
            timed = instance
            break
        instance.close()
        index += 1
    if workload_cls.clients == 1:
        if any(p != probes[0] for p in probes[1:]):
            errors.append("per-op counter deltas differ between set-ups "
                          "of one seed")
        else:
            digest = hashlib.sha1(repr(probes[0]).encode()).hexdigest()
            notes.append(f"determinism: per-op deltas of "
                         f"{', '.join(DETERMINISTIC)} identical on "
                         f"{len(probes)} set-ups (digest {digest[:16]}, the "
                         f"same in every run of this seed)")

    window = timed.run(seconds=seconds)
    workload = timed.workload
    errors += timed.check(window)
    timed.close()
    metrics, printed = end_to_end(window, workload, timed, setup_ns,
                                  write_samples)
    notes.append(f"record: {workload.describe()} "
                 f"corpus_pages={timed.corpus_pages}")
    for template in workload.shares:
        samples = [ns for o, ns, _e in window.done
                   if o.op.template == template]
        notes.append(f"template {template}: {len(samples)} ops, "
                     f"p50 {_pct(samples, 50):.3f} ms")
    # Shed, deadline-expired and retry-exhausted requests all reach the
    # client as exceptions, so they are failures here too.
    attempted = window.ops + len(window.failures)
    printed["failed_frac"] = (_ratio(len(window.failures), attempted),
                              "ratio")
    notes += [f"failure: {f}" for f in window.failures[:10]]

    if trace:
        traced_instance = Instance(workload_cls, seed, scale)
        errors += traced_instance.run(max_ops=workload_cls.warmup_ops).crashes
        ledger = Ledger()
        ledger.install()
        try:
            traced = traced_instance.run(seconds=seconds, ledger=ledger)
        finally:
            ledger.uninstall()
        notes.append(f"hygiene: {ledger.assert_removed()} wrapped "
                     f"attributes restored")
        errors += traced_instance.check(traced)
        traced_instance.close()
        metrics = per_layer(window, traced, ledger, timed, workload)
        # Self times and waits are disjoint by construction: covering more
        # than the client saw would mean a span was counted twice.
        if metrics["trace.unattributed_frac"][0] < -0.01:
            errors.append("layer self times and waits exceed the "
                          "client-observed time")
        if spans_dir:
            os.makedirs(spans_dir, exist_ok=True)
            path = os.path.join(spans_dir,
                                f"spans-{workload.name}-seed{seed}.jsonl.gz")
            notes.append(f"spans: {ledger.write_spans(path)} written to "
                         f"{path} ({ledger.dropped_spans} over the cap)")
    notes += [f"error: {e}" for e in errors[:20]]
    return Result(not errors, attempted, len(window.failures), metrics, notes,
                  printed if not trace else {})


def end_to_end(window: Window, workload: Workload, instance: Instance,
               setup_ns: list[int], load_writes: list[int]
               ) -> tuple[dict[str, tuple[float, str]],
                          dict[str, tuple[float, str]]]:
    """The gated end-to-end metrics, and the figures only printed."""
    reads = window.latencies(READ)
    writes = window.latencies(WRITE)
    if writes:
        commits_per_s = _block_rate(window.start_ns, window.ends(WRITE))
    else:
        # Read-only workloads: the write figures describe the corpus load,
        # one auto-commit insert per document through the same server by
        # one client, so a block of inserts takes the sum of its latencies.
        writes = load_writes
        blocks = [writes[i:i + BLOCK] for i in range(0, len(writes), BLOCK)]
        commits_per_s = statistics.median(
            len(block) * 1e9 / sum(block)
            for block in [b for b in blocks if len(b) == BLOCK] or blocks)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "setup_s": (statistics.median(setup_ns) / 1e9, "s"),
        "op_floor_ms": (_floor(window, workload.shares), "ms"),
        "space_amp": (instance.db.disk.allocated_bytes
                      / workload.model.user_bytes(), "ratio"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }
    printed = {
        "ops_per_s": (_block_rate(window.start_ns,
                                  [end for _o, _ns, end in window.done]),
                      "ops/s"),
        "read_p50_ms": (_pct(reads, 50), "ms"),
        "read_p90_ms": (_pct(reads, 90), "ms"),
        "write_p50_ms": (_pct(writes, 50), "ms"),
        "write_p90_ms": (_pct(writes, 90), "ms"),
        "commits_per_s": (commits_per_s, "commits/s"),
    }
    return metrics, printed


def _floor(window: Window, shares: dict[str, int]) -> float:
    """Share-weighted mean of each template's :data:`FLOOR_PCT`-th
    percentile latency, in milliseconds."""
    samples: dict[str, list[int]] = {template: [] for template in shares}
    for outcome, ns, _end in window.done:
        samples[outcome.op.template].append(ns)
    weighted = [(share, _pct(samples[template], FLOOR_PCT))
                for template, share in shares.items() if samples[template]]
    return (sum(share * ms for share, ms in weighted)
            / sum(share for share, _ms in weighted))


def per_layer(counted: Window, traced: Window, ledger: Ledger,
              instance: Instance, workload: Workload
              ) -> dict[str, tuple[float, str]]:
    """Per-layer metrics: counts from ``counted`` (untraced), times from
    ``traced``."""
    c = counted.counters
    ops, reads, writes = counted.ops, counted.count(READ), counted.count(WRITE)
    t = traced.counters
    t_ops, t_reads = traced.ops, traced.count(READ)
    t_writes, t_inserts = traced.count(WRITE), traced.count(INSERT)
    client_ns = sum(ns for _o, ns, _e in traced.done)
    ms = 1e6

    def per(ns: float, n: int) -> float:
        return _ratio(ns / ms, n)

    def wait_ms(name: str, n: int) -> float:
        return _ratio(t.get(name, 0) / 1000, n)

    layer = ledger.layer_self_ns()
    total, self_ = ledger.total_ns, ledger.self_ns
    store = instance.db.xml_stores[(CATALOG, "doc")]
    hits = c.get("buffer.hits", 0)
    fetches = hits + c.get("buffer.misses", 0)
    lookups = ("XPathValueIndex.lookup_eq", "XPathValueIndex.lookup_range")
    probes = sum(ledger.calls(name, READ) for name in lookups)
    probe_hits = sum(ledger.items(name, READ) for name in lookups)
    group = sorted(b for b, n in counted.group_sizes.items() for _ in range(n))
    stmt = c.get("serve.stmt_hits", 0) + c.get("serve.stmt_misses", 0)
    parses = c.get("xpath.parse_hits", 0) + c.get("xpath.parse_misses", 0)
    user_bytes = sum(getattr(workload, "written_bytes", ()))
    untraced_rate = counted.ops / counted.wall_ns
    traced_rate = traced.ops / traced.wall_ns
    checkpoints = ledger.calls("TransactionManager.checkpoint")
    return {
        "serve.queue_wait_ms_per_op":
            (wait_ms("waits.admission_queue_us", t_ops), "ms"),
        "serve.overhead_ms_per_op":
            (per(client_ns - total("DatabaseServer.work"), t_ops), "ms"),
        "serve.stmt_hit_ratio": (_ratio(c.get("serve.stmt_hits", 0), stmt),
                                 "ratio"),
        "core.txn_self_ms_per_op": (per(layer.get("core", 0), t_ops), "ms"),
        "core.join_ms_per_read": (per(
            total("Database.execute_plan", READ)
            - ledger.under_ns("Database.execute_plan", "Executor.execute",
                              READ), t_reads), "ms"),
        "core.retries_per_txn": (_ratio(c.get("txn.retries", 0), ops),
                                 "count"),
        "ckpt.ms_per_checkpoint":
            (per(total("TransactionManager.checkpoint"), checkpoints), "ms"),
        "ckpt.count": (c.get("wal.checkpoints", 0), "count"),
        "lang.parse_ms_per_read": (per(total("cached_parse", READ), t_reads),
                                   "ms"),
        "lang.parse_hit_ratio": (_ratio(c.get("xpath.parse_hits", 0),
                                        parses), "ratio"),
        "query.plan_ms_per_read": (per(total("Planner.plan", READ), t_reads),
                                   "ms"),
        "query.exec_self_ms_per_read":
            (per(self_("Executor.execute", READ), t_reads), "ms"),
        "query.candidates_per_row":
            (_ratio(c.get("exec.candidates", 0), counted.rows), "ratio"),
        "query.docs_evaluated_per_read":
            (_ratio(c.get("exec.docs_evaluated", 0), reads), "count"),
        "xpath.scan_self_ms_per_read":
            (per(self_("QuickXScan.run", READ), t_reads), "ms"),
        "xpath.events_per_read": (_ratio(c.get("xscan.events", 0), reads),
                                  "count"),
        "xpath.peak_units": (instance.db.stats.gauge("xscan.peak_units"),
                             "count"),
        "xmlstore.traverse_self_ms_per_read":
            (per(self_("StoredDocument.events", READ)
                 + self_("StoredDocument.node_events", READ), t_reads), "ms"),
        "xmlstore.records_read_per_read":
            (_ratio(c.get("ts.records_read", 0), reads), "count"),
        "xmlstore.pack_ms_per_insert":
            (per(self_("XmlStore.insert_document_text", INSERT), t_inserts),
             "ms"),
        "xmlstore.update_ms_per_op":
            (per(self_("XmlUpdater.replace_text")
                 + self_("XmlStore.delete_document"), t_ops), "ms"),
        "xmlstore.records_per_doc":
            (_ratio(store.space.record_count, store.document_count),
             "count"),
        "indexes.probe_ms_per_read":
            (per(sum(total(name, READ) for name in lookups), t_reads), "ms"),
        "indexes.hits_per_probe": (_ratio(probe_hits, probes), "count"),
        "indexes.maint_ms_per_write":
            (per(total("XPathValueIndex.record_added", WRITE)
                 + total("XPathValueIndex.record_removed", WRITE), t_writes),
             "ms"),
        "btree.calls_per_op":
            (_ratio(ledger.calls_with_prefix("BTree."), t_ops), "count"),
        "btree.self_ms_per_op": (per(layer.get("rdb.btree", 0), t_ops), "ms"),
        "btree.entries_scanned_per_read":
            (_ratio(c.get("btree.entries_scanned", 0), reads), "count"),
        "ts.self_ms_per_op": (per(layer.get("rdb.tablespace", 0), t_ops),
                              "ms"),
        "ts.bytes_touched_per_op":
            (_ratio(c.get("ts.bytes_touched", 0), ops), "bytes"),
        "buffer.fetches_per_op": (_ratio(fetches, ops), "count"),
        "buffer.hit_ratio": (_ratio(hits, fetches), "ratio"),
        "buffer.evictions_per_op":
            (_ratio(c.get("buffer.evictions", 0), ops), "count"),
        "buffer.self_ms_per_op": (per(layer.get("rdb.buffer", 0), t_ops),
                                  "ms"),
        "disk.reads_per_op": (_ratio(c.get("disk.page_reads", 0), ops),
                              "count"),
        "disk.writes_per_op": (_ratio(c.get("disk.page_writes", 0), ops),
                               "count"),
        "waits.buffer_read_io_ms_per_op":
            (wait_ms("waits.buffer_read_io_us", t_ops), "ms"),
        "wal.bytes_per_user_byte": (_ratio(c.get("wal.bytes", 0), user_bytes),
                                    "ratio"),
        "wal.flushes_per_commit": (_ratio(c.get("wal.flushes", 0), writes),
                                   "count"),
        "wal.group_size_p50": (group[len(group) // 2] if group else 0,
                               "count"),
        "wal.force_wait_ms_per_commit":
            (_ratio((t.get("waits.wal_force_us", 0)
                     + t.get("waits.wal_group_commit_us", 0)) / 1000,
                    t_writes), "ms"),
        "lock.waits_per_txn": (_ratio(c.get("lock.waits", 0), ops), "count"),
        "lock.wait_ms_per_txn": (wait_ms("waits.lock_wait_us", t_ops), "ms"),
        "latch.wait_ms_per_op": (wait_ms("waits.latch_wait_us", t_ops), "ms"),
        "xdm.parse_ms_per_insert":
            (per(ledger.layer_self_ns(INSERT).get("xdm", 0), t_inserts), "ms"),
        "trace.overhead_ratio": (_ratio(traced_rate, untraced_rate), "ratio"),
        "trace.unattributed_frac":
            (_ratio(ledger.unattributed_ns(client_ns, t), client_ns),
             "ratio"),
    }
