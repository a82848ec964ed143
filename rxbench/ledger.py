"""Per-layer span ledger, installed from outside the engine.

The traced run wraps the public entry points of every engine layer (see
:data:`ENTRY_POINTS`), records one span per call (name, start, end,
parent, request id) and removes the wrappers afterwards.  Nothing inside
``src/`` changes: the wrappers are plain attribute replacements that
:meth:`Ledger.uninstall` undoes, and :meth:`Ledger.assert_removed` proves
that every wrapped attribute is the original function again.

Self time.  A span's self time is its duration minus the time of the spans
nested in it.  Three entry points return iterators that interleave with
their consumer (``StoredDocument.events``, ``BTree.scan``,
``XPathValueIndex.lookup_eq``/``lookup_range``): their wrapper times each
``next()`` as a slice whose parent is whatever span is running when the
consumer asks for the next item, so QuickXScan does not absorb the
traversal and B+tree time it pulls.

Requests.  ``DatabaseServer.submit`` runs a request on a worker thread.
Its wrapper wraps the ``work`` callable so that the worker's spans carry
the client's request id, and it marks the client's enclosing span as
*blocked* from the moment ``submit`` returns: that blocked interval is not
the client span's self time.  It is covered by the worker's spans, by the
admission-queue and engine-latch waits the server charges before the work
starts, and by thread hand-off, which is what
:meth:`Ledger.unattributed_ns` reports.

Spans are kept in memory (up to ``span_cap`` a thread) and written out as
JSON lines when the run ends; aggregates are kept per thread and merged at
the end.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

#: layer -> (dotted owner, attribute names).  ``*`` means every public
#: function of the class.  ``StoredDocument.node_events`` is not a listed
#: entry point, but NodeID-list verification streams through it exactly
#: like ``events``; without it that traversal would count as QuickXScan's.
ENTRY_POINTS: dict[str, list[tuple[str, tuple[str, ...]]]] = {
    "serve": [("repro.serve.session:Session", ("query", "run", "insert")),
              ("repro.serve.server:DatabaseServer", ("submit",))],
    "core": [("repro.core.engine:Database",
              ("run_in_txn", "execute_plan", "checkpoint")),
             ("repro.rdb.txn:TransactionManager", ("checkpoint",))],
    "lang": [("repro.xpath.cache", ("cached_parse",))],
    "query": [("repro.query.planner:Planner", ("plan",)),
              ("repro.query.executor:Executor", ("execute",))],
    "xpath": [("repro.xpath.quickxscan:QuickXScan", ("run",))],
    "xmlstore": [("repro.xmlstore.store:XmlStore",
                  ("insert_document_text", "delete_document")),
                 ("repro.xmlstore.traversal:StoredDocument",
                  ("events", "node_events")),
                 ("repro.xmlstore.update:XmlUpdater", ("replace_text",))],
    "indexes": [("repro.indexes.manager:XPathValueIndex",
                 ("lookup_eq", "lookup_range", "lookup_op",
                  "record_added", "record_removed"))],
    "rdb.btree": [("repro.rdb.btree:BTree", ("*",))],
    "rdb.tablespace": [("repro.rdb.tablespace:TableSpace", ("*",))],
    "rdb.buffer": [("repro.rdb.buffer:BufferPool", ("fetch", "new_page"))],
    "rdb.storage": [("repro.rdb.storage:Disk", ("read_page", "write_page"))],
    "rdb.wal": [("repro.rdb.wal:LogManager", ("append", "flush")),
                ("repro.rdb.wal:GroupCommitter", ("commit",))],
    "xdm": [("repro.xdm.parser:XmlParser", ("parse", "parse_sax"))],
}

#: Waits the server charges before a request's work starts, so no span
#: covers them (every other wait class happens inside some span).
OUTSIDE_SPAN_WAITS = ("waits.admission_queue_us", "waits.latch_wait_us")

_clock = time.perf_counter_ns


class _ThreadLedger:
    """One thread's open-span stack, request id and aggregates."""

    def __init__(self) -> None:
        self.stack: list[list] = []
        self.req = 0
        #: Kind of the current request ("read", "insert", ...): every
        #: aggregate is keyed by it, so a per-read figure counts only the
        #: work done for reads.
        self.kind = ""
        self.self_ns: dict[tuple, int] = defaultdict(int)     # (kind, layer)
        self.name_self: dict[tuple, int] = defaultdict(int)   # (kind, name)
        self.name_total: dict[tuple, int] = defaultdict(int)
        self.name_calls: dict[tuple, int] = defaultdict(int)
        self.name_items: dict[tuple, int] = defaultdict(int)  # iterator items
        self.under: dict[tuple, int] = defaultdict(int)  # (kind, parent, name)
        self.spans: list[tuple] = []


class Ledger:
    """Installs the wrappers, records spans, and reports per-layer time."""

    def __init__(self, span_cap: int = 200_000) -> None:
        self._local = threading.local()
        self._threads: list[_ThreadLedger] = []
        self._threads_lock = threading.Lock()
        self._span_ids = itertools.count(1)
        self._installed: list[tuple[object, str, object, object]] = []
        self.span_cap = span_cap
        self.dropped_spans = 0

    # -- per-thread state ----------------------------------------------------

    def _state(self) -> _ThreadLedger:
        state = getattr(self._local, "state", None)
        if state is None:
            state = _ThreadLedger()
            self._local.state = state
            with self._threads_lock:
                self._threads.append(state)
        return state

    def begin_request(self, request_id: int, kind: str) -> None:
        """Stamp the calling (client) thread's next spans with an id."""
        st = self._state()
        st.req, st.kind = request_id, kind

    def _close(self, st: _ThreadLedger, frame: list, parent: list | None,
               layer: str, t0: int, t1: int) -> None:
        name, kind, busy = frame[2], st.kind, t1 - t0
        if frame[3]:                      # blocked on a worker since submit
            frame[1] += t1 - frame[3]
        st.self_ns[(kind, layer)] += busy - frame[1]
        st.name_self[(kind, name)] += busy - frame[1]
        st.name_total[(kind, name)] += busy
        if parent is not None:
            parent[1] += busy
            st.under[(kind, parent[2], name)] += busy

    def _record(self, st: _ThreadLedger, span_id: int, parent_id: int,
                name: str, t0: int, t1: int) -> None:
        if len(st.spans) < self.span_cap:
            st.spans.append((st.req, span_id, parent_id, name, t0, t1))
        else:
            self.dropped_spans += 1

    # -- wrapper factories ---------------------------------------------------

    def _plain(self, layer: str, name: str, fn):
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            st = ledger._state()
            stack = st.stack
            parent = stack[-1] if stack else None
            frame = [next(ledger._span_ids), 0, name, 0]
            stack.append(frame)
            t0 = _clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = _clock()
                stack.pop()
                st.name_calls[(st.kind, name)] += 1
                ledger._close(st, frame, parent, layer, t0, t1)
                ledger._record(st, frame[0], parent[0] if parent else 0,
                               name, t0, t1)
        return traced

    def _iterator(self, layer: str, name: str, fn):
        ledger = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return ledger._slices(layer, name, fn(*args, **kwargs))
        return traced

    def _slices(self, layer: str, name: str, inner):
        """Re-yield ``inner``'s items, timing each ``next()`` as a slice."""
        span_id = next(self._span_ids)
        first = last = parent_id = 0
        st = self._state()
        st.name_calls[(st.kind, name)] += 1
        try:
            while True:
                st = self._state()
                stack = st.stack
                parent = stack[-1] if stack else None
                frame = [span_id, 0, name, 0]
                stack.append(frame)
                t0 = _clock()
                try:
                    item = next(inner)
                except StopIteration:
                    return
                finally:
                    t1 = _clock()
                    stack.pop()
                    self._close(st, frame, parent, layer, t0, t1)
                    if not first:
                        first = t0
                        parent_id = parent[0] if parent else 0
                    last = t1
                st.name_items[(st.kind, name)] += 1
                yield item
        finally:
            inner.close()
            if first:
                self._record(st, span_id, parent_id, name, first, last)

    def _submit(self, fn):
        """``DatabaseServer.submit``: carry the request id to the worker."""
        ledger = self
        traced_submit = self._plain("serve", "DatabaseServer.submit", fn)

        def submit(server, session, work, label, deadline):
            st = ledger._state()
            client = st.stack[-1] if st.stack else None
            req, kind = st.req, st.kind

            def traced_work(db):
                wst = ledger._state()
                saved = wst.req, wst.kind
                wst.req, wst.kind = req, kind
                frame = [next(ledger._span_ids), 0, "DatabaseServer.work", 0]
                wst.stack.append(frame)
                t0 = _clock()
                try:
                    return work(db)
                finally:
                    t1 = _clock()
                    wst.stack.pop()
                    wst.name_calls[(kind, "DatabaseServer.work")] += 1
                    ledger._close(wst, frame, None, "serve", t0, t1)
                    ledger._record(wst, frame[0], client[0] if client else 0,
                                   "DatabaseServer.work", t0, t1)
                    wst.req, wst.kind = saved

            request = traced_submit(server, session, traced_work, label,
                                    deadline)
            if client is not None:
                client[3] = _clock()
            return request
        return functools.wraps(fn)(submit)

    # -- install / uninstall -------------------------------------------------

    def install(self) -> None:
        for layer, targets in ENTRY_POINTS.items():
            for spec, names in targets:
                module_name, _, class_name = spec.partition(":")
                module = importlib.import_module(module_name)
                if not class_name:
                    for attr in names:
                        self._wrap_function(module, attr, layer)
                    continue
                cls = getattr(module, class_name)
                if names == ("*",):
                    names = tuple(
                        attr for attr, value in vars(cls).items()
                        if not attr.startswith("_")
                        and inspect.isfunction(value))
                for attr in names:
                    self._wrap_method(cls, attr, layer)

    def _wrap_method(self, cls, attr: str, layer: str) -> None:
        original = vars(cls)[attr]
        name = f"{cls.__name__}.{attr}"
        if name == "DatabaseServer.submit":
            wrapper = self._submit(original)
        elif inspect.isgeneratorfunction(original):
            wrapper = self._iterator(layer, name, original)
        else:
            wrapper = self._plain(layer, name, original)
        setattr(cls, attr, wrapper)
        self._installed.append((cls, attr, original, wrapper))

    def _wrap_function(self, module, attr: str, layer: str) -> None:
        """Wrap a module function in every ``repro`` module bound to it."""
        original = getattr(module, attr)
        wrapper = self._plain(layer, attr, original)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and \
                    getattr(other, attr, None) is original:
                setattr(other, attr, wrapper)
                self._installed.append((other, attr, original, wrapper))

    def uninstall(self) -> None:
        for owner, attr, original, _wrapper in reversed(self._installed):
            setattr(owner, attr, original)

    def assert_removed(self) -> int:
        """Every wrapped attribute is the original again; returns count."""
        for owner, attr, original, _wrapper in self._installed:
            current = (vars(owner)[attr] if isinstance(owner, type)
                       else getattr(owner, attr))
            if current is not original:
                raise AssertionError(
                    f"wrapper left installed on {owner!r}.{attr}")
        return len(self._installed)

    # -- reports -------------------------------------------------------------

    def _merged(self, field: str, kinds) -> dict:
        """Aggregate ``field`` over threads, dropping the kind from the key
        and keeping only requests of ``kinds`` (all when ``None``)."""
        out: dict = defaultdict(int)
        for st in self._threads:
            for (kind, *key), value in getattr(st, field).items():
                if kinds is None or kind in kinds:
                    out[key[0] if len(key) == 1 else tuple(key)] += value
        return out

    def layer_self_ns(self, kinds=None) -> dict[str, int]:
        return dict(self._merged("self_ns", kinds))

    def self_ns(self, name: str, kinds=None) -> int:
        return self._merged("name_self", kinds)[name]

    def total_ns(self, name: str, kinds=None) -> int:
        return self._merged("name_total", kinds)[name]

    def calls(self, name: str, kinds=None) -> int:
        return self._merged("name_calls", kinds)[name]

    def items(self, name: str, kinds=None) -> int:
        return self._merged("name_items", kinds)[name]

    def under_ns(self, parent: str, child: str, kinds=None) -> int:
        return self._merged("under", kinds)[(parent, child)]

    def calls_with_prefix(self, prefix: str) -> int:
        return sum(count for name, count in
                   self._merged("name_calls", None).items()
                   if name.startswith(prefix))

    def unattributed_ns(self, client_ns: int, waits: dict[str, int]) -> int:
        """Client time that no layer's self time and no wait covers."""
        covered = sum(self.layer_self_ns().values())
        covered += sum(waits.get(name, 0) for name in OUTSIDE_SPAN_WAITS) \
            * 1000
        return client_ns - covered

    def write_spans(self, path: str) -> int:
        """Write every kept span as one JSON line; returns spans written."""
        written = 0
        with gzip.open(path, "wt", encoding="utf-8") as out:
            for st in self._threads:
                for req, span_id, parent, name, t0, t1 in st.spans:
                    out.write(json.dumps(
                        {"req": req, "id": span_id, "parent": parent,
                         "name": name, "start_ns": t0, "end_ns": t1},
                        separators=(",", ":")) + "\n")
                    written += 1
        return written
