"""Oblivious B+ tree stored inside a Path ORAM (Section 3.2).

The indexed storage method keeps a B+ tree whose nodes and record blocks are
logical blocks of one ORAM.  Three paper-specific modifications distinguish
it from a textbook tree:

* **Padded writes.**  Standard insert/delete leak the tree's internal
  structure through the *number* of ORAM accesses (splits and merges only
  happen at threshold occupancy).  Every insert and delete here is padded
  with dummy ORAM accesses up to a worst-case count that depends only on
  the tree height — which is public, since any point lookup already reveals
  it.  Lookups need no padding: all data hangs off the leaf level, so every
  lookup touches exactly ``height + 1`` blocks.

* **No parent pointers.**  Parent pointers would force ORAM writes to every
  child on each split/merge; instead the descent path is remembered in
  enclave memory for the duration of one operation.

* **Lazy write-back.**  Nodes touched by an operation are cached in the
  enclave and flushed once at the end, collapsing repeated touches of the
  same node into a single ORAM write.  This is safe because the ORAM hides
  *which* blocks are written; only the count matters, and the count is
  padded.

* **Bottom-up initial load.**  :meth:`ObliviousBPlusTree.bulk_load` builds
  an *empty* index from a batch in one go: only ``(key, record id)`` pairs
  are sorted inside the enclave, nodes are packed level by level, and the
  ORAM stores all blocks through :meth:`~repro.oram.base.ORAM.load_blocks`
  (for Path ORAM one sealing pass over the bucket tree).  What it shows —
  the row count and the height that implies — ``n`` padded inserts show
  too; every later operation meets an ordinary tree.

* **Resident interior.**  The top levels of the tree are kept as
  deserialised nodes in oblivious memory for the life of the table and never
  written to the ORAM, so a descent pays an ORAM access only for the
  ``oram_levels`` levels nearest the leaves.  The boundary is counted from
  the leaves up — a root split or collapse adds or removes a resident level
  and moves no node between the enclave and the ORAM — and is a closed form
  in public sizes (:func:`resident_levels_for`), reserved at construction
  for the worst-case node count of those levels.  Every padded target below
  is the paper's formula evaluated at the number of levels still in the
  ORAM, so the adversary sees the paper's sequence of uniformly random paths
  with a public number of them removed.  ``resident_levels=0`` is the
  paper's tree: every node in the ORAM.

Data layout: one record per ORAM block (as in the paper's implementation);
leaf nodes store keys plus record block ids and a next-leaf pointer so range
scans can walk the leaf level.
"""

from __future__ import annotations

import random
import struct
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterator, Sequence

from ..enclave.enclave import Enclave
from ..enclave.errors import ORAMError, StorageError
from ..oram.allocator import BlockAllocator
from ..oram.base import ORAM
from ..oram.path_oram import DEFAULT_STASH_LIMIT, PathORAM
from .rows import frame_row, framed_size, unframe_row
from .schema import Row, Schema

_TAG_INTERNAL = 0x49  # 'I'
_TAG_LEAF = 0x4C  # 'L'
_TAG_RECORD = 0x52  # 'R'

_COUNT = struct.Struct("<H")
_ID = struct.Struct("<q")

#: Default maximum children per internal node (order F).
DEFAULT_ORDER = 8


@dataclass
class _InternalNode:
    """Keys separate children: child i holds keys < keys[i] (right-biased)."""

    keys: list[bytes] = field(default_factory=list)
    children: list[int] = field(default_factory=list)


@dataclass
class _LeafNode:
    """Sorted keys with parallel record block ids, plus a next-leaf link."""

    keys: list[bytes] = field(default_factory=list)
    records: list[int] = field(default_factory=list)
    next_leaf: int = -1


_Node = _InternalNode | _LeafNode


def _packed_sizes(entries: int, full: int, minimum: int) -> list[int]:
    """Entries per node for one packed level: every node full, except that
    the last two share theirs evenly when the remainder alone would fall
    below ``minimum`` — the occupancy :meth:`ObliviousBPlusTree._rebalance`
    expects of every non-root node.  A level that fits one node is the
    root, which has no minimum."""
    count, rest = divmod(entries, full)
    sizes = [full] * count
    if rest >= minimum or (rest and not count):
        sizes.append(rest)
    elif rest:
        sizes[-1] = (full + rest + 1) // 2
        sizes.append((full + rest) // 2)
    return sizes


def resident_levels_for(widths: list[int], node_bytes: int, budget_bytes: int) -> int:
    """The resident-interior rule: the most top levels of the tallest tree
    whose worst-case node counts (``widths``, leaf level first) fit in
    ``budget_bytes`` — at most ``len(widths) - 1``, so the leaves stay in
    the ORAM."""
    levels = nodes = 0
    while (
        levels + 1 < len(widths)
        and (nodes + widths[-1 - levels]) * node_bytes <= budget_bytes
    ):
        nodes += widths[-1 - levels]
        levels += 1
    return levels


class ObliviousBPlusTree:
    """B+ tree over Path ORAM with padded, oblivious mutations.

    Parameters
    ----------
    enclave:
        Provides the ORAM's untrusted memory and oblivious-memory budget.
    schema / key_column:
        The indexed table's schema and which column keys come from (INT or
        STR; keys are compared via their order-preserving encodings).
    capacity:
        Maximum number of records; determines the ORAM size.
    order:
        Maximum children per internal node (and max keys per leaf + 1).
    resident_levels:
        Top levels of the tallest tree ``capacity`` rows can build that are
        kept in oblivious memory instead of the ORAM (module docstring).
        ``None`` applies the rule — what fits in as many bytes as a Path
        ORAM's stash reserves and in the oblivious memory still free once
        the ORAM has taken its own, so the resident levels never turn a
        construction that fits into one that does not; ``0`` is the paper's
        tree.
    """

    def __init__(
        self,
        enclave: Enclave,
        schema: Schema,
        key_column: str,
        capacity: int,
        order: int = DEFAULT_ORDER,
        rng: random.Random | None = None,
        oram: ORAM | None = None,
        oram_factory=None,
        resident_levels: int | None = None,
    ) -> None:
        """``oram_factory(enclave, capacity, block_size, rng) -> ORAM`` lets
        callers swap the block store (recursive Path ORAM to shrink the
        position map per Appendix B, Ring ORAM for the ~1.5x of Section 8)
        without the tree knowing; ``oram`` passes a pre-built store."""
        if order < 4:
            # Genuine argument validation: ``order`` is a developer-supplied
            # tuning knob, never derived from user statements.
            raise ValueError("order must be at least 4")
        if capacity < 1:
            raise StorageError("capacity must be positive")
        self._enclave = enclave
        self.schema = schema
        self.key_column = key_column
        self._key_col = schema.column(key_column)
        self._key_index = schema.column_index(key_column)
        self._key_size = self._key_col.byte_width
        self._order = order
        self._capacity = capacity

        widths = self._worst_case_widths()
        if resident_levels is not None and not 0 <= resident_levels < len(widths):
            raise ValueError(
                f"resident_levels must be in 0..{len(widths) - 1}, "
                f"got {resident_levels}"
            )
        block_size = self._compute_block_size()
        # Records plus node overhead: leaves hold >= (order-1)//2 records
        # outside transient underflow, so nodes add well under 60 % blocks.
        oram_capacity = capacity + max(8, (3 * capacity) // 4)
        if oram is not None:
            self._oram = oram
        elif oram_factory is not None:
            self._oram = oram_factory(
                enclave, oram_capacity, block_size, rng or random.Random()
            )
        else:
            self._oram = PathORAM(
                enclave, oram_capacity, block_size, rng=rng or random.Random()
            )
        self._allocator = BlockAllocator(self._oram.capacity)

        # Resident interior, charged once for its worst-case node count.
        if resident_levels is None:
            resident_levels = resident_levels_for(
                widths,
                block_size,
                min(DEFAULT_STASH_LIMIT * block_size, enclave.oblivious.free_bytes),
            )
        self._resident_levels = resident_levels
        # The boundary: levels this far above the leaves (0), and higher,
        # are resident.  With none resident it is out of any tree's reach.
        self._resident_from = (
            len(widths) - resident_levels if resident_levels else sys.maxsize
        )
        self._resident_limit = sum(widths[len(widths) - resident_levels :])
        self._resident_bytes = self._resident_limit * block_size
        try:
            enclave.oblivious.allocate(self._resident_bytes)
        except BaseException:
            if oram is None:
                self._oram.free()
            raise
        self._resident: dict[int, _Node] = {}  # ids below -1, never serialised
        self._next_resident = -2

        self._root = -1
        self._height = 0  # number of node levels (leaf-only tree -> 1)
        self._count = 0
        # Per-operation node cache (lazy write-back).
        self._cache: dict[int, _Node] = {}
        self._dirty: set[int] = set()

    # ------------------------------------------------------------------
    # Geometry / serialisation
    # ------------------------------------------------------------------
    @property
    def _max_leaf_keys(self) -> int:
        return self._order - 1

    @property
    def _min_leaf_keys(self) -> int:
        return (self._order - 1) // 2

    @property
    def _min_children(self) -> int:
        return self._order // 2

    def _worst_case_widths(self) -> list[int]:
        """Most nodes each level can hold, leaf level first, up to the one
        root of the tallest tree ``capacity`` rows can build: every
        non-root node keeps its minimum occupancy, so a level has at most
        ``entries below // minimum`` nodes."""
        widths = [max(1, self._capacity // self._min_leaf_keys)]
        while widths[-1] > 1:
            widths.append(max(1, widths[-1] // self._min_children))
        return widths

    def _compute_block_size(self) -> int:
        record = 1 + framed_size(self.schema)
        internal = (
            1 + _COUNT.size + self._order * _ID.size + (self._order - 1) * self._key_size
        )
        leaf = (
            1
            + _COUNT.size
            + (self._order - 1) * (_ID.size + self._key_size)
            + _ID.size
        )
        return max(record, internal, leaf)

    def _serialize(self, node: _Node) -> bytes:
        if isinstance(node, _InternalNode):
            parts = [bytes([_TAG_INTERNAL]), _COUNT.pack(len(node.children))]
            parts.extend(_ID.pack(child) for child in node.children)
            parts.extend(node.keys)
            return b"".join(parts)
        parts = [bytes([_TAG_LEAF]), _COUNT.pack(len(node.keys))]
        parts.extend(_ID.pack(record) for record in node.records)
        parts.extend(node.keys)
        parts.append(_ID.pack(node.next_leaf))
        return b"".join(parts)

    def _deserialize(self, data: bytes) -> _Node:
        tag = data[0]
        offset = 1
        if tag == _TAG_INTERNAL:
            (count,) = _COUNT.unpack_from(data, offset)
            offset += _COUNT.size
            children = []
            for _ in range(count):
                children.append(_ID.unpack_from(data, offset)[0])
                offset += _ID.size
            keys = []
            for _ in range(max(0, count - 1)):
                keys.append(data[offset : offset + self._key_size])
                offset += self._key_size
            return _InternalNode(keys=keys, children=children)
        if tag == _TAG_LEAF:
            (count,) = _COUNT.unpack_from(data, offset)
            offset += _COUNT.size
            records = []
            for _ in range(count):
                records.append(_ID.unpack_from(data, offset)[0])
                offset += _ID.size
            keys = []
            for _ in range(count):
                keys.append(data[offset : offset + self._key_size])
                offset += self._key_size
            (next_leaf,) = _ID.unpack_from(data, offset)
            return _LeafNode(keys=keys, records=records, next_leaf=next_leaf)
        raise StorageError(f"unknown node tag {tag:#x}")

    # ------------------------------------------------------------------
    # Node cache (lazy write-back, Section 3.2 optimisation)
    # ------------------------------------------------------------------
    def _load(self, node_id: int) -> _Node:
        if node_id < 0:
            return self._resident[node_id]
        node = self._cache.get(node_id)
        if node is not None:
            return node
        data = self._oram.read(node_id)
        if data is None:
            raise ORAMError(f"missing tree node {node_id}")
        node = self._deserialize(data)
        self._cache[node_id] = node
        return node

    def _alloc_node(self, node: _Node, level: int) -> int:
        """Give ``node``, ``level`` levels above the leaves, an id: in
        oblivious memory at or above the boundary, else an ORAM block
        written at the next flush."""
        if level >= self._resident_from:
            if len(self._resident) >= self._resident_limit:
                raise StorageError(
                    f"resident interior exceeded its reservation of "
                    f"{self._resident_limit} nodes"
                )
            node_id = self._next_resident
            self._next_resident -= 1
            self._resident[node_id] = node
            return node_id
        node_id = self._allocator.allocate()
        self._cache[node_id] = node
        self._dirty.add(node_id)
        return node_id

    def _mark_dirty(self, node_id: int) -> None:
        if node_id >= 0:  # a resident node is its own latest copy
            self._dirty.add(node_id)

    def _free_node(self, node_id: int) -> None:
        if node_id < 0:
            del self._resident[node_id]
            return
        self._allocator.release(node_id)
        self._cache.pop(node_id, None)
        self._dirty.discard(node_id)

    def _flush(self) -> None:
        for node_id in sorted(self._dirty):
            self._oram.write(node_id, self._serialize(self._cache[node_id]))
        self._dirty.clear()
        self._cache.clear()

    # ------------------------------------------------------------------
    # Padding (the obliviousness modification of Section 3.2)
    # ------------------------------------------------------------------
    def _oram_height(self, height: int) -> int:
        """How many levels of a ``height``-level tree live in the ORAM: the
        ones nearest the leaves.  Every padding target is evaluated here —
        resident levels are read, split and merged without an access."""
        return min(height, self._resident_from)

    def _worst_case_insert(self, height: int) -> int:
        """ORAM accesses an insert must appear to make: descent reads,
        record write, every path node plus a split sibling per level, and a
        possible new root — ``height`` counting ORAM levels only."""
        return 3 * height + 4

    def _worst_case_delete(self, height: int) -> int:
        """Descent reads (h), up to two sibling probes per level (2h), and a
        flush of at most two distinct dirty nodes per level plus the root
        (2h + 1), with slack for the record access — ``h`` counting ORAM
        levels only."""
        return 6 * height + 6

    def _pad_accesses(self, start_accesses: int, target: int) -> None:
        """Pad to ``target`` *logical* operations' worth of ORAM accesses.

        The recursive ORAM spends two counted accesses per logical
        operation (data + position map), so the budget scales by the
        store's declared factor.
        """
        factor = self._oram.accesses_per_operation
        scaled_target = target * factor
        actual = self._enclave.cost.oram_accesses - start_accesses
        if actual > scaled_target:
            raise ORAMError(
                f"operation exceeded its padding target ({actual} > "
                f"{scaled_target}); obliviousness bound violated"
            )
        # One burst: each dummy access spends exactly ``factor`` counted
        # accesses, so the deficit fixes the burst size up front instead of
        # re-reading the cost counter between dummies.
        deficit = scaled_target - actual
        if deficit > 0:
            self._oram.dummy_accesses((deficit + factor - 1) // factor)

    # ------------------------------------------------------------------
    # Public properties
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        """Number of records currently stored."""
        return self._count

    @property
    def height(self) -> int:
        """Node levels from root to leaf (0 when empty).  Public: any point
        lookup reveals it through its fixed access count."""
        return self._height

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def order(self) -> int:
        """Maximum children per internal node."""
        return self._order

    @property
    def oram(self) -> ORAM:
        return self._oram

    @property
    def resident_levels(self) -> int:
        """Top levels of the tallest tree held in oblivious memory (public
        sizes fix it)."""
        return self._resident_levels

    @property
    def oram_levels(self) -> int:
        """ORAM accesses one descent makes: the tree's levels not resident."""
        return self._oram_height(self._height)

    @property
    def resident_nodes(self) -> int:
        """Nodes currently held in oblivious memory."""
        return len(self._resident)

    def oblivious_memory_bytes(self) -> int:
        """Oblivious memory the resident levels reserve (the ORAM reports
        its own)."""
        return self._resident_bytes

    def _key_bytes(self, value: object) -> bytes:
        self._key_col.validate(value)  # type: ignore[arg-type]
        return self._key_col.sort_key(value)  # type: ignore[arg-type]

    def _row_key(self, row: Row) -> bytes:
        return self._key_col.sort_key(row[self._key_index])  # type: ignore[arg-type]

    # ------------------------------------------------------------------
    # Records
    # ------------------------------------------------------------------
    def _record_payload(self, row: Row) -> bytes:
        return bytes([_TAG_RECORD]) + frame_row(self.schema, row)

    def _write_record(self, row: Row) -> int:
        record_id = self._allocator.allocate()
        self._oram.write(record_id, self._record_payload(row))
        return record_id

    def _read_record(self, record_id: int) -> Row:
        data = self._oram.read(record_id)
        if data is None or data[0] != _TAG_RECORD:
            raise ORAMError(f"block {record_id} is not a record")
        row = unframe_row(self.schema, data[1:])
        if row is None:
            raise ORAMError(f"record {record_id} holds a dummy row")
        return row

    # ------------------------------------------------------------------
    # Descent
    # ------------------------------------------------------------------
    def _descend(self, key: bytes, leftmost: bool = False) -> list[tuple[int, int]]:
        """Path of (node_id, child_index_taken) from root to leaf.

        The leaf entry's child index is -1.  Exactly ``oram_levels`` ORAM
        reads, counting the leaf the caller loads next.
        ``leftmost=True`` steers to the leftmost leaf that may hold ``key``
        (needed by reads when duplicates straddle a split separator equal
        to the key); the default right-biased descent is what inserts use
        so new duplicates land after existing ones.
        """
        chooser = bisect_left if leftmost else bisect_right
        path: list[tuple[int, int]] = []
        node_id = self._root
        for _ in range(self._height - 1):
            node = self._load(node_id)
            assert isinstance(node, _InternalNode)
            child_index = chooser(node.keys, key)
            path.append((node_id, child_index))
            node_id = node.children[child_index]
        path.append((node_id, -1))
        return path

    # ------------------------------------------------------------------
    # Point lookup and range scan
    # ------------------------------------------------------------------
    def _scan_padding_target(self, results: int) -> int:
        """Padded access count for a leaf-level scan returning ``results``
        rows: the descent, one record read per result, and the worst-case
        number of extra leaf loads (a match can sit at a leaf boundary, so
        the raw count would otherwise leak the key's position within its
        leaf — a subtle ±1-access channel this padding closes)."""
        extra_leaves = results // max(1, self._min_leaf_keys) + 2
        return self._oram_height(self._height) + max(1, results) + extra_leaves

    def search(self, key_value: object) -> list[Row]:
        """All rows whose key equals ``key_value``.

        Observable cost: a fixed function of the tree height and the result
        count (part of the leaked output size) — padded so hits, misses,
        and boundary-straddling matches are indistinguishable.
        """
        if not self._height:
            return []
        start = self._enclave.cost.oram_accesses
        key = self._key_bytes(key_value)
        path = self._descend(key, leftmost=True)
        leaf = self._load(path[-1][0])
        assert isinstance(leaf, _LeafNode)
        results: list[Row] = []
        index = bisect_left(leaf.keys, key)
        while True:
            while index < len(leaf.keys) and leaf.keys[index] == key:
                results.append(self._read_record(leaf.records[index]))
                index += 1
            if index < len(leaf.keys) or leaf.next_leaf < 0:
                break
            leaf = self._load(leaf.next_leaf)
            assert isinstance(leaf, _LeafNode)
            index = 0
        self._cache.clear()
        self._pad_accesses(start, self._scan_padding_target(len(results)))
        return results

    def range_scan(self, low: object | None, high: object | None) -> list[Row]:
        """Rows with key in [low, high] (either bound may be ``None``).

        Walks the leaf level; leaks the size of the scanned segment, which
        the paper counts as an intermediate table size (Section 4.1).
        """
        if not self._height:
            return []
        start = self._enclave.cost.oram_accesses
        low_key = self._key_bytes(low) if low is not None else b"\x00" * self._key_size
        path = self._descend(low_key, leftmost=True)
        leaf = self._load(path[-1][0])
        assert isinstance(leaf, _LeafNode)
        high_key = self._key_bytes(high) if high is not None else None
        results: list[Row] = []
        index = bisect_left(leaf.keys, low_key)
        done = False
        while not done:
            while index < len(leaf.keys):
                key = leaf.keys[index]
                if high_key is not None and key > high_key:
                    done = True
                    break
                results.append(self._read_record(leaf.records[index]))
                index += 1
            if done or leaf.next_leaf < 0:
                break
            leaf = self._load(leaf.next_leaf)
            assert isinstance(leaf, _LeafNode)
            index = 0
        self._cache.clear()
        # Pad to the worst case for this (public) result size so the raw
        # access count cannot leak the segment's alignment within leaves.
        self._pad_accesses(start, self._scan_padding_target(len(results)))
        return results

    # ------------------------------------------------------------------
    # Insert
    # ------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        """Insert one row; padded to the worst-case ORAM access count."""
        row = self.schema.validate_row(row)
        if self._count >= self._capacity:
            raise StorageError("index is at capacity")
        start = self._enclave.cost.oram_accesses
        key = self._row_key(row)

        if not self._height:
            record_id = self._write_record(row)
            leaf = _LeafNode(keys=[key], records=[record_id])
            self._root = self._alloc_node(leaf, 0)
            self._height = 1
        else:
            record_id = self._write_record(row)
            path = self._descend(key)
            leaf_id = path[-1][0]
            leaf = self._load(leaf_id)
            assert isinstance(leaf, _LeafNode)
            index = bisect_right(leaf.keys, key)
            leaf.keys.insert(index, key)
            leaf.records.insert(index, record_id)
            self._mark_dirty(leaf_id)
            if len(leaf.keys) > self._max_leaf_keys:
                self._split_leaf(leaf_id, leaf, path)
        self._count += 1
        self._flush()
        self._pad_accesses(
            start, self._worst_case_insert(self._oram_height(self._height))
        )

    def _split_leaf(self, leaf_id: int, leaf: _LeafNode, path: list[tuple[int, int]]) -> None:
        cut = len(leaf.keys) // 2
        right = _LeafNode(
            keys=leaf.keys[cut:], records=leaf.records[cut:], next_leaf=leaf.next_leaf
        )
        right_id = self._alloc_node(right, 0)
        separator = right.keys[0]
        del leaf.keys[cut:]
        del leaf.records[cut:]
        leaf.next_leaf = right_id
        self._mark_dirty(leaf_id)
        self._insert_into_parent(path, len(path) - 1, separator, right_id)

    def _insert_into_parent(
        self, path: list[tuple[int, int]], level: int, separator: bytes, new_child: int
    ) -> None:
        if level == 0:
            old_root = self._root
            root = _InternalNode(keys=[separator], children=[old_root, new_child])
            self._root = self._alloc_node(root, self._height)
            self._height += 1
            return
        parent_id, child_index = path[level - 1]
        parent = self._load(parent_id)
        assert isinstance(parent, _InternalNode)
        parent.keys.insert(child_index, separator)
        parent.children.insert(child_index + 1, new_child)
        self._mark_dirty(parent_id)
        if len(parent.children) > self._order:
            self._split_internal(parent_id, parent, path, level - 1)

    def _split_internal(
        self,
        node_id: int,
        node: _InternalNode,
        path: list[tuple[int, int]],
        level: int,
    ) -> None:
        mid = len(node.children) // 2
        promote = node.keys[mid - 1]
        right = _InternalNode(keys=node.keys[mid:], children=node.children[mid:])
        right_id = self._alloc_node(right, len(path) - 1 - level)
        del node.keys[mid - 1 :]
        del node.children[mid:]
        self._mark_dirty(node_id)
        self._insert_into_parent(path, level, promote, right_id)

    # ------------------------------------------------------------------
    # Bottom-up build (initial load)
    # ------------------------------------------------------------------
    def _packed_shape(self, rows: int) -> tuple[int, int]:
        """(nodes stored in the ORAM, height) of the tree :meth:`bulk_load`
        builds for ``rows`` rows: a closed form in the public row count."""
        width = -(-rows // self._max_leaf_keys)
        nodes, height = width, 1
        while width > 1:
            width = -(-width // self._order)
            if height < self._resident_from:
                nodes += width
            height += 1
        return nodes, height

    def _directory_bytes(self, rows: int) -> int:
        """Oblivious memory :meth:`bulk_load` holds while it sorts: one
        ``(key, record id)`` pair per row."""
        return rows * (self._key_size + _ID.size)

    def prefers_bulk_load(self, rows: int) -> bool:
        """Whether ``rows`` rows should go in through :meth:`bulk_load`
        rather than one padded :meth:`insert` each.

        True when the index is empty, the key directory fits in free
        oblivious memory, and the store's load moves fewer blocks than
        ``rows`` worst-case insert bursts would — priced at the ORAM levels
        of the height the packed tree has, which the row-by-row tree is
        never below once all rows are in.  Every input is public (the row
        count, the capacity and schema behind the ORAM geometry, the
        enclave's allocations), so the choice tells the adversary nothing
        the batch size does not; one row into a large empty index stays a
        padded burst.
        """
        if self._count or rows < 1:
            return False
        if self._directory_bytes(rows) > self._enclave.oblivious.free_bytes:
            return False
        nodes, height = self._packed_shape(rows)
        return self._oram.load_accesses(rows + nodes) < rows * self._worst_case_insert(
            self._oram_height(height)
        )

    def bulk_load(self, rows: Sequence[Row]) -> None:
        """Build the tree bottom-up from ``rows``; the index must be empty.

        Record ids are handed out in input order and only ``(key, record
        id)`` pairs are sorted — inside the enclave, their bytes charged to
        oblivious memory while the nodes are packed, and stably, so
        duplicate keys keep input order as right-biased inserts leave them.
        Leaves and then each internal level are packed full
        (:func:`_packed_sizes`), the resident levels stay in oblivious
        memory, and the ORAM takes every other block at once
        (:meth:`~repro.oram.base.ORAM.load_blocks`).  Observable: the
        store's load of ``len(rows) + nodes`` blocks, a function of the
        row count and capacity — declared leakage, which ``len(rows)``
        padded inserts reveal as well — and nothing of keys, values or
        input order.  An emptiness, capacity or memory refusal is raised
        before any untrusted write.
        """
        if self._count:
            raise StorageError("bulk load needs an empty index")
        rows = [self.schema.validate_row(row) for row in rows]
        if len(rows) > self._capacity:
            raise StorageError("index is at capacity")
        if not rows:
            return
        directory_bytes = self._directory_bytes(len(rows))
        self._enclave.oblivious.allocate(directory_bytes)
        try:
            blocks, root, height = self._pack_tree(rows)
        finally:
            self._enclave.oblivious.release(directory_bytes)
        try:
            self._oram.load_blocks(blocks)
        except BaseException:
            for block_id, _ in blocks:
                self._allocator.release(block_id)
            self._resident.clear()
            raise
        self._root = root
        self._height = height
        self._count = len(rows)

    def _pack_tree(self, rows: list[Row]) -> tuple[list[tuple[int, bytes]], int, int]:
        """Pack ``rows`` as a tree: (ORAM blocks, root id, height); the
        resident levels' nodes go straight to oblivious memory."""
        allocate = self._allocator.allocate
        blocks: list[tuple[int, bytes]] = []
        directory: list[tuple[bytes, int]] = []
        for row in rows:
            record_id = allocate()
            blocks.append((record_id, self._record_payload(row)))
            directory.append((self._row_key(row), record_id))
        directory.sort(key=itemgetter(0))

        # One (node id, smallest key below it) pair per node of the level.
        sizes = _packed_sizes(len(directory), self._max_leaf_keys, self._min_leaf_keys)
        leaf_ids = [allocate() for _ in sizes]
        level: list[tuple[int, bytes]] = []
        offset = 0
        for position, size in enumerate(sizes):
            entries = directory[offset : offset + size]
            offset += size
            leaf = _LeafNode(
                keys=[key for key, _ in entries],
                records=[record_id for _, record_id in entries],
                next_leaf=leaf_ids[position + 1] if position + 1 < len(sizes) else -1,
            )
            blocks.append((leaf_ids[position], self._serialize(leaf)))
            level.append((leaf_ids[position], entries[0][0]))
        height = 1
        while len(level) > 1:
            parents: list[tuple[int, bytes]] = []
            offset = 0
            for size in _packed_sizes(len(level), self._order, self._min_children):
                group = level[offset : offset + size]
                offset += size
                node = _InternalNode(
                    keys=[low for _, low in group[1:]],
                    children=[child for child, _ in group],
                )
                if height < self._resident_from:
                    node_id = allocate()
                    blocks.append((node_id, self._serialize(node)))
                else:
                    node_id = self._alloc_node(node, height)
                parents.append((node_id, group[0][1]))
            level = parents
            height += 1
        return blocks, level[0][0], height

    # ------------------------------------------------------------------
    # Delete and update
    # ------------------------------------------------------------------
    def delete(self, key_value: object) -> int:
        """Delete one row matching ``key_value`` (the first, if duplicates).

        Returns the number deleted (0 or 1); padded to worst case either way
        so hits and misses are indistinguishable beyond the leaked result.

        Duplicates may straddle split separators, in which case the target
        can live a few leaves right of the leftmost descent (separators go
        stale as runs are consumed).  Those off-path occurrences are removed
        by a forward leaf walk without rebalancing — a leaf briefly below
        minimum occupancy is harmless for correctness and is repaired the
        next time a delete path reaches it.  The walk's extra accesses are
        bounded by the key's duplicate run, whose length already leaks as
        the result size of queries on that key.
        """
        start = self._enclave.cost.oram_accesses
        deleted = 0
        walked = 0
        if self._height:
            key = self._key_bytes(key_value)
            path = self._descend(key, leftmost=True)
            leaf_id = path[-1][0]
            leaf = self._load(leaf_id)
            assert isinstance(leaf, _LeafNode)
            index = bisect_left(leaf.keys, key)
            if index < len(leaf.keys) and leaf.keys[index] == key:
                self._free_node(leaf.records[index])
                del leaf.keys[index]
                del leaf.records[index]
                self._mark_dirty(leaf_id)
                self._count -= 1
                deleted = 1
                self._rebalance(path, len(path) - 1)
            else:
                # Walk right past stale separators: the first occurrence,
                # if any, is in a subsequent leaf whose keys are <= key.
                while leaf.next_leaf >= 0 and not deleted:
                    if leaf.keys and leaf.keys[0] > key:
                        break
                    next_id = leaf.next_leaf
                    leaf = self._load(next_id)
                    assert isinstance(leaf, _LeafNode)
                    walked += 1
                    index = bisect_left(leaf.keys, key)
                    if index < len(leaf.keys) and leaf.keys[index] == key:
                        self._free_node(leaf.records[index])
                        del leaf.keys[index]
                        del leaf.records[index]
                        self._mark_dirty(next_id)
                        self._count -= 1
                        deleted = 1
        height = max(self._oram_height(self._height), 1)
        self._flush()
        # A fixed two-leaf walk allowance covers every unique-key case
        # (separator-equal keys sit at most one leaf right of the leftmost
        # descent); only long duplicate runs exceed it, and their length is
        # already public as the key's query result size.
        self._pad_accesses(
            start, self._worst_case_delete(height) + max(2, walked)
        )
        return deleted

    def update(self, key_value: object, new_row: Row) -> int:
        """Overwrite the record of the first row with key ``key_value``.

        The new row must keep the same key.  Fixed access pattern:
        ``oram_levels`` reads + 1 record write (padded on miss).
        """
        new_row = self.schema.validate_row(new_row)
        key = self._key_bytes(key_value)
        if self._row_key(new_row) != key:
            raise StorageError("update must preserve the index key")
        updated = 0
        if self._height:
            start = self._enclave.cost.oram_accesses
            path = self._descend(key, leftmost=True)
            leaf = self._load(path[-1][0])
            assert isinstance(leaf, _LeafNode)
            record_id = self._find_forward(leaf, key)
            if record_id >= 0:
                self._oram.write(record_id, self._record_payload(new_row))
                updated = 1
            self._cache.clear()
            # Pad to a fixed target (descent + walk allowance + record op)
            # so hits, misses, and separator-straddling keys cost alike.
            self._pad_accesses(start, self._scan_padding_target(1))
        return updated

    def _find_forward(self, leaf: _LeafNode, key: bytes) -> int:
        """Record id of the first occurrence of ``key`` at or right of
        ``leaf``, walking past stale/equal separators; -1 when absent."""
        while True:
            index = bisect_left(leaf.keys, key)
            if index < len(leaf.keys) and leaf.keys[index] == key:
                return leaf.records[index]
            if index < len(leaf.keys) or leaf.next_leaf < 0:
                return -1
            next_node = self._load(leaf.next_leaf)
            assert isinstance(next_node, _LeafNode)
            leaf = next_node

    def _rebalance(self, path: list[tuple[int, int]], level: int) -> None:
        node_id = path[level][0]
        node = self._load(node_id)

        if level == 0:
            # Root: shrink the tree rather than rebalancing.
            if isinstance(node, _InternalNode) and len(node.children) == 1:
                new_root = node.children[0]
                self._free_node(node_id)
                self._root = new_root
                self._height -= 1
            elif isinstance(node, _LeafNode) and not node.keys:
                self._free_node(node_id)
                self._root = -1
                self._height = 0
            return

        if isinstance(node, _LeafNode):
            if len(node.keys) >= self._min_leaf_keys:
                return
        else:
            if len(node.children) >= self._min_children:
                return

        parent_id, child_index = path[level - 1]
        parent = self._load(parent_id)
        assert isinstance(parent, _InternalNode)

        # Prefer borrowing from the left sibling, then the right; merge if
        # neither can spare an entry.
        if child_index > 0:
            left_id = parent.children[child_index - 1]
            left = self._load(left_id)
            if self._can_lend(left):
                self._borrow_from_left(parent, parent_id, child_index, left, left_id, node, node_id)
                return
        if child_index < len(parent.children) - 1:
            right_id = parent.children[child_index + 1]
            right = self._load(right_id)
            if self._can_lend(right):
                self._borrow_from_right(parent, parent_id, child_index, node, node_id, right, right_id)
                return
        if child_index > 0:
            left_id = parent.children[child_index - 1]
            left = self._load(left_id)
            self._merge(parent, parent_id, child_index - 1, left, left_id, node, node_id)
        else:
            right_id = parent.children[child_index + 1]
            right = self._load(right_id)
            self._merge(parent, parent_id, child_index, node, node_id, right, right_id)
        self._rebalance(path, level - 1)

    def _can_lend(self, node: _Node) -> bool:
        if isinstance(node, _LeafNode):
            return len(node.keys) > self._min_leaf_keys
        return len(node.children) > self._min_children

    def _borrow_from_left(
        self,
        parent: _InternalNode,
        parent_id: int,
        child_index: int,
        left: _Node,
        left_id: int,
        node: _Node,
        node_id: int,
    ) -> None:
        if isinstance(node, _LeafNode):
            assert isinstance(left, _LeafNode)
            node.keys.insert(0, left.keys.pop())
            node.records.insert(0, left.records.pop())
            parent.keys[child_index - 1] = node.keys[0]
        else:
            assert isinstance(left, _InternalNode)
            node.children.insert(0, left.children.pop())
            node.keys.insert(0, parent.keys[child_index - 1])
            parent.keys[child_index - 1] = left.keys.pop()
        self._mark_dirty(left_id)
        self._mark_dirty(node_id)
        self._mark_dirty(parent_id)

    def _borrow_from_right(
        self,
        parent: _InternalNode,
        parent_id: int,
        child_index: int,
        node: _Node,
        node_id: int,
        right: _Node,
        right_id: int,
    ) -> None:
        if isinstance(node, _LeafNode):
            assert isinstance(right, _LeafNode)
            node.keys.append(right.keys.pop(0))
            node.records.append(right.records.pop(0))
            parent.keys[child_index] = right.keys[0]
        else:
            assert isinstance(right, _InternalNode)
            node.children.append(right.children.pop(0))
            node.keys.append(parent.keys[child_index])
            parent.keys[child_index] = right.keys.pop(0)
        self._mark_dirty(right_id)
        self._mark_dirty(node_id)
        self._mark_dirty(parent_id)

    def _merge(
        self,
        parent: _InternalNode,
        parent_id: int,
        left_position: int,
        left: _Node,
        left_id: int,
        right: _Node,
        right_id: int,
    ) -> None:
        """Fold ``right`` into ``left`` and drop the separator at
        ``left_position`` from the parent."""
        if isinstance(left, _LeafNode):
            assert isinstance(right, _LeafNode)
            left.keys.extend(right.keys)
            left.records.extend(right.records)
            left.next_leaf = right.next_leaf
        else:
            assert isinstance(right, _InternalNode)
            left.keys.append(parent.keys[left_position])
            left.keys.extend(right.keys)
            left.children.extend(right.children)
        del parent.keys[left_position]
        del parent.children[left_position + 1]
        self._free_node(right_id)
        self._mark_dirty(left_id)
        self._mark_dirty(parent_id)

    # ------------------------------------------------------------------
    # Linear scan fallback (Section 3.2)
    # ------------------------------------------------------------------
    #: Buckets opened per batched linear-scan call (bounds enclave residency).
    _SCAN_CHUNK_BUCKETS = 256

    def linear_scan(self) -> Iterator[Row]:
        """Scan the raw ORAM region as if it were a flat table.

        Reads every bucket of the ORAM tree in order — a fixed pattern,
        hence oblivious — treating node blocks, free blocks, and ORAM
        dummies alike as dummy rows.  The paper reports < 2.5× overhead
        versus true flat storage; the overhead here is the ORAM's ~4× space
        times bucket occupancy.  Buckets are gathered and opened in batched
        chunks (trace: ``R 0..num_buckets-1``, the per-bucket loop's order,
        less the buckets the ORAM caches inside the enclave).
        """
        if not isinstance(self._oram, PathORAM):
            raise StorageError("linear scan requires a PathORAM-backed index")
        oram = self._oram
        record_tag = bytes([_TAG_RECORD])
        # Stash and treetop blocks live in enclave memory: no untrusted
        # access needed, and no bucket read below would find them.
        for block_id, payload in oram.resident_blocks():
            if self._allocator.is_allocated(block_id) and payload[:1] == record_tag:
                row = unframe_row(self.schema, payload[1:])
                if row is not None:
                    yield row
        for start in range(0, oram.num_buckets, self._SCAN_CHUNK_BUCKETS):
            count = min(self._SCAN_CHUNK_BUCKETS, oram.num_buckets - start)
            for entries in oram.scan_buckets(start, count):
                for block_id, _, payload in entries:
                    if not self._allocator.is_allocated(block_id):
                        continue
                    if payload[:1] != record_tag:
                        continue
                    row = unframe_row(self.schema, payload[1:])
                    if row is not None:
                        yield row

    def items(self) -> Iterator[Row]:
        """All rows in key order, by walking the leaf level.

        Not oblivious on its own (cost reveals leaf count); used by tests
        and by operators that already leak the full-table size.
        """
        if not self._height:
            return
        node_id = self._root
        for _ in range(self._height - 1):
            node = self._load(node_id)
            assert isinstance(node, _InternalNode)
            node_id = node.children[0]
        while node_id >= 0:
            leaf = self._load(node_id)
            assert isinstance(leaf, _LeafNode)
            for record_id in leaf.records:
                yield self._read_record(record_id)
            node_id = leaf.next_leaf
        self._cache.clear()

    def free(self) -> None:
        """Release the underlying ORAM and the resident levels' reservation
        (idempotent, like the ORAM's own)."""
        self._oram.free()
        self._enclave.oblivious.release(self._resident_bytes)
        self._resident_bytes = 0
        self._resident.clear()
