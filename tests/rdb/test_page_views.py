"""Decoded page views: B+tree readers share the node cached on the frame.

Coherence (every cached view equals a fresh decode of its frame's bytes,
through splits, deletes, evictions and failed inserts), latch-free readers
racing a writer, and the deterministic payoff: an identical query over an
unchanged tree decodes nothing the second time.
"""

import bisect
import sys
import threading

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from repro.analyze import sanitize
from repro.core.config import DEFAULT_CONFIG
from repro.core.engine import Database
from repro.core.stats import StatsRegistry
from repro.errors import DuplicateKeyError, IndexError_, SanitizerError
from repro.rdb import btree as btree_module
from repro.rdb.btree import BTree, _deserialize, _Leaf
from repro.rdb.buffer import BufferPool
from repro.rdb.storage import Disk


def make_tree(capacity, unique=False, page_size=512):
    disk = Disk(page_size=page_size, stats=StatsRegistry())
    return BTree(BufferPool(disk, capacity=capacity), unique=unique)


def assert_views_coherent(pool):
    """Every cached view equals a fresh decode of its frame's bytes."""
    for page_id, frame in list(pool._frames.items()):
        if frame.view is not None:
            assert frame.view == _deserialize(frame.data), page_id


@pytest.fixture
def armed():
    was_enabled = sanitize.enabled()
    sanitize.enable()
    yield
    if not was_enabled:
        sanitize.disable()


@pytest.fixture
def disarmed():
    """The sanitizer re-decodes every view hit by design; counting tests
    measure the unsanitized engine."""
    was_enabled = sanitize.enabled()
    sanitize.disable()
    yield
    if was_enabled:
        sanitize.enable()


KEYS = st.integers(0, 60).map(lambda i: b"k%03d" % i)
VALUES = st.integers(0, 3).map(lambda i: b"v%d" % i * 10)


class ViewedTreeMachine(RuleBasedStateMachine):
    """A 5-frame pool under a ~20-page tree: views are evicted and
    reloaded constantly.  The oracle is a sorted list of entries."""

    def __init__(self):
        super().__init__()
        self.tree = make_tree(capacity=5)
        self.oracle: list[tuple[bytes, bytes]] = []

    @rule(key=KEYS, value=VALUES)
    def insert(self, key, value):
        if (key, value) in self.oracle:
            with pytest.raises(DuplicateKeyError):
                self.tree.insert(key, value)
        else:
            self.tree.insert(key, value)
            bisect.insort(self.oracle, (key, value))

    @rule(key=KEYS, value=st.none() | VALUES)
    def delete(self, key, value):
        matches = [e for e in self.oracle
                   if e[0] == key and value in (None, e[1])]
        assert self.tree.delete(key, value) == bool(matches)
        if matches:
            self.oracle.remove(matches[0])

    @rule(key=KEYS)
    def search_one(self, key):
        expected = next((v for k, v in self.oracle if k == key), None)
        assert self.tree.search_one(key) == expected
        assert self.tree.search(key) == [v for k, v in self.oracle
                                         if k == key]

    @rule(key=KEYS)
    def seek_ge(self, key):
        expected = next((e for e in self.oracle if e[0] >= key), None)
        assert self.tree.seek_ge(key) == expected

    @rule()
    def scan(self):
        assert list(self.tree.scan()) == self.oracle

    @invariant()
    def views_match_bytes(self):
        assert_views_coherent(self.tree.pool)
        assert self.tree.pool.pinned_pages() == []


TestViewedTreeMachine = ViewedTreeMachine.TestCase
TestViewedTreeMachine.settings = settings(max_examples=25,
                                          stateful_step_count=80,
                                          deadline=None)


class TestMutatorsLeaveSharedNodes:
    """The mutators edit private copies: a node a reader holds never
    changes, and a failed insert leaves the cached view as it was."""

    @pytest.mark.parametrize("mutate", [
        lambda tree: tree.insert(b"k1a", b"v"),
        lambda tree: tree.delete(b"k1"),
    ])
    def test_held_view_is_unchanged(self, mutate):
        tree = make_tree(capacity=16)
        for i in range(3):
            tree.insert(b"k%d" % i, b"v")
        held = tree._read(tree.root_page)
        before = list(held.entries)
        mutate(tree)
        assert held.entries == before
        assert list(tree.scan()) != before
        assert_views_coherent(tree.pool)

    def test_duplicate_key(self):
        tree = make_tree(capacity=16, unique=True)
        for i in range(5):
            tree.insert(b"k%d" % i, b"v")
        assert tree.search_one(b"k2") == b"v"  # caches the root leaf view
        frame = tree.pool._frames[tree.root_page]
        cached = frame.view
        before = list(cached.entries)
        with pytest.raises(DuplicateKeyError):
            tree.insert(b"k2", b"other")
        assert frame.view is cached
        assert cached.entries == before
        assert_views_coherent(tree.pool)

    def test_node_overflow(self):
        tree = make_tree(capacity=16)
        for i in range(3):
            tree.insert(b"k%d" % i, b"v")
        expected = list(tree.scan())  # caches the root leaf view
        frame = tree.pool._frames[tree.root_page]
        cached = frame.view
        # The split puts the oversized entry alone on a page it overflows:
        # the insert already added it to the node it split.
        with pytest.raises(IndexError_, match="overflows"):
            tree.insert(b"k9" * 300, b"v")
        assert frame.view is cached
        assert cached.entries == expected
        assert_views_coherent(tree.pool)
        assert list(tree.scan()) == expected


class TestWriteWindow:
    """Readers overlapping a write pin, as a latch-free monitor can."""

    ORIGINAL = [(b"k%d" % i, b"v") for i in range(3)]
    REPLACED = [(b"x", b"y")]

    def setup_tree(self):
        tree = make_tree(capacity=16)
        for key, value in self.ORIGINAL:
            tree.insert(key, value)
        assert tree._read(tree.root_page).entries == self.ORIGINAL  # cached
        image = _Leaf(list(self.REPLACED), None).serialize(512)
        return tree, tree.pool, tree.root_page, image

    def test_reader_inside_the_window_installs_nothing(self):
        tree, pool, page, image = self.setup_tree()
        with pool.page(page, write=True) as data:
            before = tree._read(page)
            data[:] = image
            after = tree._read(page)
            assert pool._frames[page].view is None
        assert before.entries == self.ORIGINAL
        assert after.entries == self.REPLACED
        assert tree._read(page).entries == self.REPLACED

    def test_decode_spanning_a_write_is_not_installed(self):
        tree, pool, page, image = self.setup_tree()
        pool._frames[page].view = None

        def racing_decode(data):
            node = _deserialize(data)
            with pool.page(page, write=True) as raw:  # a whole write
                raw[:] = image
            return node

        assert pool.view(page, racing_decode).entries == self.ORIGINAL
        assert pool._frames[page].view is None
        assert tree._read(page).entries == self.REPLACED

    def test_raw_fetch_and_dirty_unpin_drops_the_view(self):
        tree, pool, page, image = self.setup_tree()
        data = pool.fetch(page)
        try:
            data[:] = image
        finally:
            pool.unpin(page, dirty=True)
        assert tree._read(page).entries == self.REPLACED


class TestLatchFreeReader:
    def test_sanitizer_trips_on_a_stale_view(self, armed):
        tree = make_tree(capacity=16)
        tree.insert(b"k", b"v")
        tree._read(tree.root_page)
        tree.pool._frames[tree.root_page].view = _Leaf([(b"gone", b"")], None)
        with pytest.raises(SanitizerError, match="decode.stale"):
            tree.search_one(b"k")
        assert tree.stats.get("sanitize.decode.stale") == 1

    def test_readers_racing_inserts_never_cache_a_torn_view(self, armed):
        # Large pool: no eviction, so only the view protocol is on trial.
        # More readers than cores and a short switch interval interleave
        # decodes with writes often (a torn decode raises or misreads; it
        # must never be installed as the view).
        tree = make_tree(capacity=512)
        stop = threading.Event()
        tripped: list[SanitizerError] = []
        completed: list[int] = []

        def reader():
            done = 0
            while not stop.is_set():
                try:
                    tree.height()
                    list(tree.scan())
                    done += 1
                except SanitizerError as exc:
                    tripped.append(exc)
                    break
                except Exception:  # noqa: BLE001 - a torn decode mid-write
                    pass
            completed.append(done)

        threads = [threading.Thread(target=reader) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            oracle = []
            for i in range(1500):
                entry = (b"k%05d" % ((i * 7919) % 1500), b"v%d" % i)
                tree.insert(*entry)
                oracle.append(entry)
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=60)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert tripped == []
        assert tree.stats.get("sanitize.decode.stale") == 0
        assert len(completed) == 3 and sum(completed) > 0
        assert_views_coherent(tree.pool)

        final = {}

        def final_read():
            final["scan"] = list(tree.scan())
            final["height"] = tree.height()

        thread = threading.Thread(target=final_read)
        thread.start()
        thread.join(timeout=60)
        assert final["scan"] == sorted(oracle)
        assert final["height"] == tree.height() > 1
        assert tree.stats.get("sanitize.decode.stale") == 0


def catalog_db():
    db = Database(DEFAULT_CONFIG.with_(record_size_limit=128))
    db.create_table("catalog", [("id", "bigint"), ("doc", "xml")])
    for i in range(40):
        db.insert("catalog", (i, f"<Catalog><Product><Name>Item{i}</Name>"
                                 f"<RegPrice>{50 + i * 5}</RegPrice>"
                                 f"</Product></Catalog>"))
    db.create_xpath_index("ix_price", "catalog", "doc",
                          "/Catalog/Product/RegPrice", "double")
    return db


class TestDecodeCounts:
    @pytest.mark.parametrize("query", [
        "/Catalog/Product[RegPrice > 150]",  # index probe + DocID join
        "/Catalog/Product[Name = 'Item7']",  # full scan
    ])
    def test_repeat_query_decodes_nothing(self, monkeypatch, disarmed,
                                          query):
        db = catalog_db()
        decodes = [0]

        def counting(data):
            decodes[0] += 1
            return _deserialize(data)

        monkeypatch.setattr(btree_module, "_deserialize", counting)
        runs = []
        for _ in range(2):
            decodes[0] = 0
            hits, misses = (db.stats.get("buffer.hits"),
                            db.stats.get("buffer.misses"))
            rows = db.xpath("catalog", "doc", query)
            runs.append((decodes[0], db.stats.get("buffer.hits") - hits,
                         db.stats.get("buffer.misses") - misses, len(rows)))
        (first_decodes, first_hits, first_misses, first_rows), \
            (second_decodes, second_hits, second_misses, second_rows) = runs
        assert first_decodes > 0 and first_rows > 0
        assert second_decodes == 0
        assert (second_hits, second_misses, second_rows) == \
            (first_hits, first_misses, first_rows)
