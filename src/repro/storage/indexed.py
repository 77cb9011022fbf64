"""Indexed storage method: the oblivious B+ tree with a table interface.

Wraps :class:`~repro.storage.btree.ObliviousBPlusTree` so tables and
operators can use the same verbs (insert/update/delete/scan) on either
storage method, and adds the "scan the index like a flat table" fallback of
Section 3.2 for analytics on frequently-updated data.
"""

from __future__ import annotations

import random
from typing import Callable, Iterator, Sequence

from ..enclave.enclave import Enclave
from ..enclave.errors import StorageError
from ..oram.base import ORAM
from ..oram.path_oram import paper_path_oram
from ..oram.recursive import RecursivePathORAM
from ..oram.ring_oram import RingORAM
from .btree import DEFAULT_ORDER, ObliviousBPlusTree
from .schema import Row, Schema, Value

_ORAM_FACTORIES = {
    "paper": paper_path_oram,
    "recursive": lambda enclave, capacity, block_size, rng: RecursivePathORAM(
        enclave, capacity, block_size, rng=rng
    ),
    "ring": lambda enclave, capacity, block_size, rng: RingORAM(
        enclave, capacity, block_size, rng=rng
    ),
}

def check_oram_kind(oram_kind: str) -> None:
    """Raise :class:`StorageError` unless ``oram_kind`` is "path" or one of
    the other block stores an index can be built on."""
    if oram_kind != "path" and oram_kind not in _ORAM_FACTORIES:
        raise StorageError(f"unknown oram_kind {oram_kind!r}")


class IndexedStorage:
    """A table stored as an oblivious B+ tree keyed on one column."""

    def __init__(
        self,
        enclave: Enclave,
        schema: Schema,
        key_column: str,
        capacity: int,
        order: int = DEFAULT_ORDER,
        rng: random.Random | None = None,
        oram_kind: str = "path",
    ) -> None:
        """``oram_kind``: "path" (default: Path ORAM with the treetop, and
        the tree's interior, in oblivious memory), "paper" (Path ORAM and
        the tree exactly as the paper builds them, no treetop and every
        node in the ORAM — what the figure benchmarks measure; the planner
        also runs §4.1's selections over this table as written: through a
        flat scratch over the index, and Small after a separate statistics
        pass),
        "recursive" (position map in a second ORAM, Appendix B — note the
        flat-style linear-scan fallback is unavailable), or "ring" (Ring
        ORAM, Section 8).  Only "path" spends oblivious memory on the
        tree: the other kinds are measured against the paper's counts."""
        self._enclave = enclave
        self.schema = schema
        self.key_column = key_column
        self.oram_kind = oram_kind
        self._key_index = schema.column_index(key_column)
        check_oram_kind(oram_kind)
        oram_factory = _ORAM_FACTORIES.get(oram_kind)
        self.tree = ObliviousBPlusTree(
            enclave,
            schema,
            key_column,
            capacity,
            order=order,
            rng=rng,
            oram_factory=oram_factory,
            resident_levels=None if oram_kind == "path" else 0,
        )

    @property
    def capacity(self) -> int:
        return self.tree.capacity

    @property
    def used_rows(self) -> int:
        return self.tree.count

    @property
    def enclave(self) -> Enclave:
        return self._enclave

    @property
    def oram(self) -> ORAM:
        return self.tree.oram

    # ------------------------------------------------------------------
    # Point and range access (the index's raison d'être)
    # ------------------------------------------------------------------
    def point_lookup(self, key: Value) -> list[Row]:
        """Rows with exactly this key; O(log² N) with a fixed access shape."""
        return self.tree.search(key)

    def range_lookup(self, low: Value | None, high: Value | None) -> list[Row]:
        """Rows with key in [low, high]; leaks the scanned segment's size."""
        return self.tree.range_scan(low, high)

    # ------------------------------------------------------------------
    # Mutations (padded to worst case inside the tree)
    # ------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        self.tree.insert(row)

    def load(self, rows: Sequence[Row]) -> None:
        """Build the (empty) index bottom-up from ``rows`` in one ORAM load
        (:meth:`~repro.storage.btree.ObliviousBPlusTree.bulk_load`)."""
        self.tree.bulk_load(rows)

    def insert_many(self, rows: Sequence[Row]) -> None:
        """Insert a batch: one bottom-up :meth:`load` when the tree's public
        rule prefers it (an initial load into an empty index), else one
        padded insert per row."""
        if self.tree.prefers_bulk_load(len(rows)):
            self.load(rows)
        else:
            for row in rows:
                self.insert(row)

    def delete_key(self, key: Value) -> int:
        """Delete one row by key; returns 0 or 1."""
        return self.tree.delete(key)

    def delete_all(self, key: Value) -> int:
        """Delete every row with this key (duplicates allowed on insert).

        Each removal is an independently padded delete, so the count leaks —
        but the count equals the query's result size, which is already part
        of the declared leakage.
        """
        deleted = 0
        while self.tree.delete(key):
            deleted += 1
        return deleted

    def update_key(self, key: Value, assign: Callable[[Row], Row]) -> int:
        """Rewrite the first row with this key (key must be preserved)."""
        matches = self.tree.search(key)
        if not matches:
            # Keep the miss pattern close to a hit: the search already made
            # a padded record access; update makes none.
            return 0
        return self.tree.update(key, assign(matches[0]))

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def linear_scan(self) -> Iterator[Row]:
        """Flat-style scan over the raw ORAM blocks (Section 3.2 fallback)."""
        return self.tree.linear_scan()

    def rows(self) -> list[Row]:
        """All rows, in key order (test/debug helper; leaks leaf count)."""
        return list(self.tree.items())

    def free(self) -> None:
        self.tree.free()
