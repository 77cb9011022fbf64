"""Tables: flat, indexed, or both (Section 3).

Administrators choose per table which storage method(s) to maintain, like
deciding whether to build an index in a conventional DBMS.  A ``BOTH`` table
pays insert/update/delete on each representation but lets the query planner
pick the cheaper one per query — the configuration Figure 12 shows winning
on mixed workloads.
"""

from __future__ import annotations

import random
import threading
from enum import Enum
from typing import Sequence

from ..enclave.enclave import Enclave
from ..enclave.errors import CapacityError, StorageError
from .flat import FlatStorage
from .btree import ORAM_KINDS, ObliviousBPlusTree, index_tree
from .schema import Row, Schema, Value


class StorageMethod(Enum):
    """Which physical representations a table maintains."""

    FLAT = "flat"
    INDEXED = "indexed"
    BOTH = "both"


class Table:
    """A named table with one or two physical representations."""

    def __init__(
        self,
        enclave: Enclave,
        name: str,
        schema: Schema,
        capacity: int,
        method: StorageMethod = StorageMethod.FLAT,
        key_column: str | None = None,
        rng: random.Random | None = None,
        oram_kind: str = "path",
        creation_id: int = 0,
    ) -> None:
        if method is not StorageMethod.FLAT and key_column is None:
            raise StorageError(f"table {name!r}: indexed storage needs a key column")
        if oram_kind not in ORAM_KINDS:
            raise StorageError(f"unknown oram_kind {oram_kind!r}")
        self._enclave = enclave
        self.name = name
        self.schema = schema
        self.method = method
        self.key_column = key_column
        # Recorded whatever the method: "paper" also tells the planner to run
        # the paper's selection algorithms over the flat copy as written.
        self.oram_kind = oram_kind
        # Revision epoch: (catalog creation id, mutation count).  The
        # statement retry keys on it, so any mutation — and any
        # drop/recreate, which gets a fresh creation id — changes it.
        self._creation_id = creation_id
        self._mutations = 0
        # Concurrent threads may bump the epoch; the increment must not
        # lose updates (a lost bump could let a retry miss a write).
        self._revision_lock = threading.Lock()
        self.flat: FlatStorage | None = None
        self.indexed: ObliviousBPlusTree | None = None
        if method in (StorageMethod.FLAT, StorageMethod.BOTH):
            self.flat = FlatStorage(
                enclave, schema, capacity, name=f"table:{name}:flat"
            )
        if method in (StorageMethod.INDEXED, StorageMethod.BOTH):
            assert key_column is not None
            try:
                self.indexed = index_tree(
                    enclave, schema, key_column, capacity, rng=rng, oram_kind=oram_kind
                )
            except BaseException:
                # Failed-construction cleanup: a BOTH table whose index
                # never came up must not leak its flat scratch region.
                if self.flat is not None:
                    self.flat.free()
                raise

    @property
    def capacity(self) -> int:
        if self.flat is not None:
            return self.flat.capacity
        assert self.indexed is not None
        return self.indexed.capacity

    @property
    def used_rows(self) -> int:
        if self.flat is not None:
            return self.flat.used_rows
        assert self.indexed is not None
        return self.indexed.count

    @property
    def enclave(self) -> Enclave:
        return self._enclave

    @property
    def revision(self) -> tuple[int, int]:
        """The table's revision epoch (creation id, mutation count)."""
        return (self._creation_id, self._mutations)

    def bump_revision(self) -> None:
        """Advance the epoch after a mutation (an extra bump per statement
        is harmless: it only ever says the table changed).  Locked:
        concurrent sessions must never lose a bump."""
        with self._revision_lock:
            self._mutations += 1

    def require_flat(self) -> FlatStorage:
        if self.flat is None:
            raise StorageError(f"table {self.name!r} has no flat representation")
        return self.flat

    def require_index(self) -> ObliviousBPlusTree:
        if self.indexed is None:
            raise StorageError(f"table {self.name!r} has no index")
        return self.indexed

    # ------------------------------------------------------------------
    # Mutations: routed to every maintained representation so both stay
    # consistent (the BOTH method's cost, measured in Figure 12).
    # ------------------------------------------------------------------
    def check_insert(self, rows: Sequence[Row], fast: bool = False) -> list[Row]:
        """Validate ``rows`` and run every representation's capacity check;
        returns the validated rows and mutates nothing.

        A clean failure (validation, capacity) leaves the revision epoch
        untouched — nothing changed, so the statement may be retried.  Once a
        storage pass has started, any failure instead bumps the epoch
        conservatively (see the mutation wrappers below).  The engine runs
        this before it logs an insert, so a refused batch never reaches the
        write-ahead log (validation before logging keeps the log
        replayable).
        """
        validated = [self.schema.validate_row(row) for row in rows]
        count = len(validated)
        if self.flat is not None:
            if fast:
                if self.flat.fast_insert_cursor + count > self.flat.capacity:
                    raise CapacityError(
                        f"table {self.flat.region_name} is full for fast inserts"
                    )
            elif self.flat.used_rows + count > self.flat.capacity:
                raise CapacityError(f"table {self.flat.region_name} is full")
        if (
            self.indexed is not None
            and self.indexed.count + count > self.indexed.capacity
        ):
            raise CapacityError(f"index of table {self.name!r} is full")
        return validated

    def insert(self, row: Row, fast: bool = False) -> None:
        """Insert into every representation.

        ``fast=True`` uses flat storage's constant-time append (for tables
        with few deletions, Section 3.1).
        """
        (row,) = self.check_insert([row], fast)
        try:
            if self.flat is not None:
                if fast:
                    self.flat.fast_insert(row)
                else:
                    self.flat.insert(row)
            if self.indexed is not None:
                self.indexed.insert(row)
        except BaseException:
            # The mutation may have partially landed (one representation
            # updated, or a pass torn mid-chunk): bump so the epoch says the
            # table changed, and the statement is not retried over it.
            self.bump_revision()
            raise
        self.bump_revision()

    def insert_many(self, rows: list[Row], fast: bool = False) -> None:
        """Bulk insert into every representation, batching both sides.

        The flat copy takes the batch in a single oblivious pass
        (:meth:`~repro.storage.flat.FlatStorage.insert_many`) — or one
        contiguous range write for ``fast=True``
        (:meth:`~repro.storage.flat.FlatStorage.fast_insert_many`) —
        instead of one full pass per row.

        The index builds itself bottom-up
        (:meth:`~repro.storage.btree.ObliviousBPlusTree.bulk_load`) when its
        public rule prefers it (:meth:`~repro.storage.btree.
        ObliviousBPlusTree.prefers_bulk_load`), an initial load: the index
        is empty, the ``(key, record id)``
        directory fits in free oblivious memory, and the ORAM's load moves
        fewer blocks than ``len(rows)`` padded inserts would.  Why that
        leaks nothing new: (1) the rule reads only public values — the
        batch size, the index's row count, the capacity and schema that fix
        the ORAM geometry, the enclave's allocations — so which path ran
        says no more than the batch size does; (2) the load's trace is a
        function of the capacity (Path ORAM: every bucket written once, in
        index order) or of the row count (one write per block on the other
        stores), where ``len(rows)`` padded bursts already reveal the row
        count and the height it implies; (3) block leaves are drawn fresh
        and none is revealed, so every later statement meets an ordinary
        tree.  Any other batch — a non-empty index, or one row into a large
        empty one — keeps one padded insert per row, bit for bit.
        ``fast`` concerns the flat copy only.
        """
        validated = self.check_insert(rows, fast)
        try:
            if self.flat is not None:
                if fast:
                    self.flat.fast_insert_many(validated)
                else:
                    self.flat.insert_many(validated)
            index = self.indexed
            if index is not None and index.prefers_bulk_load(len(validated)):
                index.bulk_load(validated)
            elif index is not None:
                for row in validated:
                    index.insert(row)
        except BaseException:
            self.bump_revision()
            raise
        self.bump_revision()

    def _key_equals(self, key: Value):
        """``key column = key`` as a predicate, so the flat pass decodes the
        key column only."""
        from ..operators.predicate import Comparison  # operators import storage

        return Comparison(self.key_column or self.schema.columns[0].name, "=", key)

    def delete_key(self, key: Value) -> int:
        """Delete all rows whose indexed/first column equals ``key``."""
        deleted = 0
        try:
            if self.flat is not None:
                deleted = self.flat.delete(self._key_equals(key))
            if self.indexed is not None:
                # One padded delete per copy of the key: the count is the
                # statement's result size, already declared leakage.
                indexed_deleted = 0
                while self.indexed.delete(key):
                    indexed_deleted += 1
                if self.flat is None:
                    deleted = indexed_deleted
        except BaseException:
            self.bump_revision()
            raise
        self.bump_revision()
        return deleted

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def point_lookup(self, key: Value) -> list[Row]:
        """Index point lookup; falls back to a full flat scan if no index."""
        if self.indexed is not None:
            return self.indexed.search(key)
        column = self.key_column or self.schema.columns[0].name
        key_index = self.schema.column_index(column)
        flat = self.require_flat()
        return [row for row in flat.rows() if row[key_index] == key]

    def rows(self) -> list[Row]:
        """All rows via the cheapest oblivious full scan available."""
        if self.flat is not None:
            return self.flat.rows()
        assert self.indexed is not None
        return list(self.indexed.linear_scan())

    def free(self) -> None:
        if self.flat is not None:
            self.flat.free()
        if self.indexed is not None:
            self.indexed.free()
