"""Page-based B+tree with variable-length byte keys.

This is the index-manager infrastructure of Fig. 1.  Exactly as in the paper,
one mechanism backs relational indexes, the DocID index, the NodeID index and
the XPath value indexes: the only extension the XML services need is allowing
*zero, one or more* entries per data record (§3.3), which falls out naturally
because the tree stores arbitrary ``(key, value)`` pairs with duplicates.

Entries are totally ordered by the composite ``(key, value)``; internal-node
separators carry the full composite so duplicate keys that span node splits
still scan in order.  Nodes live on buffer-pool pages, so page touches and
physical I/O are accounted like every other component.  Readers share the
node decoded once per buffer frame (:meth:`BufferPool.view`): the frame owns
it, a write pin or eviction drops it, and it is immutable by contract —
the mutators decode a private copy to edit, because ``insert`` changes a
node before writing it and a failing split must leave the shared node as
it was.  Under ``REPRO_SANITIZE`` each shared hit is checked against a
fresh decode.  Deletion is by simple removal without rebalancing (underfull
nodes persist until the index is rebuilt) — a common industrial
simplification; lookups and scans are unaffected.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.analyze import sanitize as _sanitize
from repro.errors import DuplicateKeyError, IndexError_
from repro.rdb import codec
from repro.rdb.buffer import BufferPool

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.context import ShardContext

_LEAF = 0
_INTERNAL = 1

Entry = tuple[bytes, bytes]


@dataclass(slots=True)
class _Leaf:
    entries: list[Entry]
    next_leaf: int | None

    def serialize(self, page_size: int) -> bytes:
        out = bytearray([_LEAF])
        codec.write_u32(out, 0 if self.next_leaf is None else self.next_leaf + 1)
        codec.write_uvarint(out, len(self.entries))
        for key, value in self.entries:
            codec.write_bytes(out, key)
            codec.write_bytes(out, value)
        if len(out) > page_size:
            raise IndexError_(f"leaf node overflows page ({len(out)} > {page_size})")
        return bytes(out) + bytes(page_size - len(out))

    def size(self) -> int:
        return 6 + sum(
            codec.uvarint_size(len(k)) + len(k) + codec.uvarint_size(len(v)) + len(v)
            for k, v in self.entries)


@dataclass(slots=True)
class _Internal:
    seps: list[Entry]
    children: list[int]

    def serialize(self, page_size: int) -> bytes:
        out = bytearray([_INTERNAL])
        codec.write_uvarint(out, len(self.seps))
        codec.write_u32(out, self.children[0])
        for (key, value), child in zip(self.seps, self.children[1:], strict=True):
            codec.write_bytes(out, key)
            codec.write_bytes(out, value)
            codec.write_u32(out, child)
        if len(out) > page_size:
            raise IndexError_(f"internal node overflows page ({len(out)} > {page_size})")
        return bytes(out) + bytes(page_size - len(out))

    def size(self) -> int:
        return 6 + sum(
            codec.uvarint_size(len(k)) + len(k) + codec.uvarint_size(len(v)) + len(v) + 4
            for k, v in self.seps)


def _deserialize(data: bytes | bytearray) -> _Leaf | _Internal:
    kind = data[0]
    if kind == _LEAF:
        raw_next, pos = codec.read_u32(data, 1)
        count, pos = codec.read_uvarint(data, pos)
        entries = []
        for _ in range(count):
            key, pos = codec.read_bytes(data, pos)
            value, pos = codec.read_bytes(data, pos)
            entries.append((key, value))
        return _Leaf(entries, None if raw_next == 0 else raw_next - 1)
    if kind == _INTERNAL:
        count, pos = codec.read_uvarint(data, 1)
        first_child, pos = codec.read_u32(data, pos)
        seps: list[Entry] = []
        children = [first_child]
        for _ in range(count):
            key, pos = codec.read_bytes(data, pos)
            value, pos = codec.read_bytes(data, pos)
            child, pos = codec.read_u32(data, pos)
            seps.append((key, value))
            children.append(child)
        return _Internal(seps, children)
    raise IndexError_(f"corrupt index node (kind byte {kind})")


class BTree:
    """B+tree index over ``(key: bytes, value: bytes)`` pairs.

    Duplicate keys are allowed; entries are ordered by ``(key, value)``.
    ``unique=True`` rejects duplicate keys at insert, which is how the DocID
    and NodeID indexes enforce their invariants.
    """

    #: Declared resource captures (SHARD003): an index manager lives on
    #: the buffer pool it was built over, and charges that pool's stats
    #: sink — both shard-scoped with the tree itself.
    _shard_scoped_ = ("pool", "stats")

    def __init__(self, pool: BufferPool, name: str = "ix", unique: bool = False,
                 order_bytes: int | None = None,
                 context: "ShardContext | None" = None) -> None:
        self.pool = pool
        self.name = name
        self.unique = unique
        self.context = context
        _sanitize.inherit_shard(self, pool)
        if context is not None:
            context.register_index(name, self)
        self.order_bytes = order_bytes or max(pool.page_size - 512, 512)
        if self.order_bytes > pool.page_size - 16:
            self.order_bytes = pool.page_size - 16
        self.stats = pool.stats
        self._page_count = 1
        self.entry_count = 0
        self.root_page = self._write_new(_Leaf([], None))

    # -- node I/O -----------------------------------------------------------

    def _read(self, page_id: int) -> _Leaf | _Internal:
        """The frame's shared node: never mutate it (see module doc)."""
        return self.pool.view(page_id, _deserialize)

    def _read_private(self, page_id: int) -> _Leaf | _Internal:
        """A decoded copy of the node the caller may edit."""
        with self.pool.page(page_id) as data:
            return _deserialize(data)

    def _write(self, page_id: int, node: _Leaf | _Internal) -> None:
        image = node.serialize(self.pool.page_size)
        with self.pool.page(page_id, write=True) as data:
            data[:] = image

    def _write_new(self, node: _Leaf | _Internal) -> int:
        page_id, data = self.pool.new_page()
        try:
            data[:] = node.serialize(self.pool.page_size)
        finally:
            # Unpin even when serialize raises: a frame pinned by a failed
            # split can never be evicted and fails the next quiesce point.
            self.pool.unpin(page_id, dirty=True)
        return page_id

    # -- public API -----------------------------------------------------------

    @property
    def page_count(self) -> int:
        """Pages ever allocated to this index."""
        return self._page_count

    def insert(self, key: bytes, value: bytes) -> None:
        """Insert ``(key, value)``.

        Raises :class:`DuplicateKeyError` for a unique index when ``key`` is
        already present; duplicate ``(key, value)`` pairs are rejected always.
        """
        with self.stats.trace("btree.insert", index=self.name):
            self.stats.add("btree.inserts")
            result = self._insert(self.root_page, key, value)
            if result is not None:
                sep, right = result
                new_root = _Internal([sep], [self.root_page, right])
                self.root_page = self._write_new(new_root)
                self._page_count += 1
            self.entry_count += 1

    def _insert(self, page_id: int, key: bytes,
                value: bytes) -> tuple[Entry, int] | None:
        node = self._read_private(page_id)
        if isinstance(node, _Leaf):
            pos = bisect.bisect_left(node.entries, (key, value))
            if self.unique:
                if (pos < len(node.entries) and node.entries[pos][0] == key) or \
                        (pos > 0 and node.entries[pos - 1][0] == key):
                    raise DuplicateKeyError(
                        f"duplicate key in unique index {self.name!r}")
            elif pos < len(node.entries) and node.entries[pos] == (key, value):
                raise DuplicateKeyError(
                    f"duplicate entry in index {self.name!r}")
            node.entries.insert(pos, (key, value))
            if node.size() <= self.order_bytes:
                self._write(page_id, node)
                return None
            return self._split_leaf(page_id, node)
        child_index = bisect.bisect_right(node.seps, (key, value))
        result = self._insert(node.children[child_index], key, value)
        if result is None:
            return None
        sep, right = result
        node.seps.insert(child_index, sep)
        node.children.insert(child_index + 1, right)
        if node.size() <= self.order_bytes:
            self._write(page_id, node)
            return None
        return self._split_internal(page_id, node)

    def _split_leaf(self, page_id: int, node: _Leaf) -> tuple[Entry, int]:
        mid = len(node.entries) // 2
        right = _Leaf(node.entries[mid:], node.next_leaf)
        right_page = self._write_new(right)
        self._page_count += 1
        node.entries = node.entries[:mid]
        node.next_leaf = right_page
        self._write(page_id, node)
        return right.entries[0], right_page

    def _split_internal(self, page_id: int, node: _Internal) -> tuple[Entry, int]:
        mid = len(node.seps) // 2
        sep = node.seps[mid]
        right = _Internal(node.seps[mid + 1:], node.children[mid + 1:])
        right_page = self._write_new(right)
        self._page_count += 1
        node.seps = node.seps[:mid]
        node.children = node.children[:mid + 1]
        self._write(page_id, node)
        return sep, right_page

    def delete(self, key: bytes, value: bytes | None = None) -> bool:
        """Delete one entry.

        With ``value`` given, removes that exact pair; otherwise removes the
        first entry with ``key``.  Returns whether an entry was removed.
        """
        with self.stats.trace("btree.delete", index=self.name):
            self.stats.add("btree.deletes")
            page_id = self._leaf_for(key)
            while page_id is not None:
                node = self._read_private(page_id)
                assert isinstance(node, _Leaf)
                for pos, (k, v) in enumerate(node.entries):
                    if k > key:
                        return False
                    if k == key and (value is None or v == value):
                        del node.entries[pos]
                        self._write(page_id, node)
                        self.entry_count -= 1
                        return True
                page_id = node.next_leaf
            return False

    def search(self, key: bytes) -> list[bytes]:
        """All values stored under exactly ``key``."""
        with self.stats.trace("btree.search", index=self.name) as span:
            self.stats.add("btree.searches")
            out = [v for k, v in self.scan(low=key, high=key,
                                           high_inclusive=True)]
            self.stats.observe("btree.search_entries", len(out))
            if span is not None:
                span.set("hits", len(out))
            return out

    def search_one(self, key: bytes) -> bytes | None:
        """First value under ``key`` or None (for unique indexes)."""
        with self.stats.trace("btree.search", index=self.name):
            self.stats.add("btree.searches")
            out = None
            for _, v in self.scan(low=key, high=key, high_inclusive=True):
                out = v
                break
            self.stats.observe("btree.search_entries", int(out is not None))
            return out

    def seek_ge(self, key: bytes) -> Entry | None:
        """Smallest entry with key ≥ ``key`` (the NodeID-index probe, §3.4)."""
        with self.stats.trace("btree.search", index=self.name):
            self.stats.add("btree.searches")
            out = None
            for entry in self.scan(low=key):
                out = entry
                break
            self.stats.observe("btree.search_entries", int(out is not None))
            return out

    def scan(self, low: bytes | None = None, high: bytes | None = None,
             low_inclusive: bool = True,
             high_inclusive: bool = False) -> Iterator[Entry]:
        """Ordered range scan of ``(key, value)`` pairs."""
        page_id = self._leaf_for(low if low is not None else b"")
        while page_id is not None:
            node = self._read(page_id)
            assert isinstance(node, _Leaf)
            for key, value in node.entries:
                if low is not None:
                    if key < low or (not low_inclusive and key == low):
                        continue
                if high is not None:
                    if key > high or (not high_inclusive and key == high):
                        return
                self.stats.add("btree.entries_scanned")
                yield key, value
            page_id = node.next_leaf

    def scan_prefix(self, prefix: bytes) -> Iterator[Entry]:
        """All entries whose key starts with ``prefix``, in order."""
        for key, value in self.scan(low=prefix):
            if not key.startswith(prefix):
                return
            yield key, value

    def height(self) -> int:
        """Levels from root to leaf (1 for a single-leaf tree)."""
        levels = 1
        node = self._read(self.root_page)
        while isinstance(node, _Internal):
            levels += 1
            node = self._read(node.children[0])
        return levels

    def _leaf_for(self, key: bytes) -> int:
        page_id = self.root_page
        node = self._read(page_id)
        while isinstance(node, _Internal):
            page_id = node.children[bisect.bisect_left(node.seps, (key, b""))]
            node = self._read(page_id)
        return page_id

    def __len__(self) -> int:
        return self.entry_count
