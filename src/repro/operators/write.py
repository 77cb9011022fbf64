"""Oblivious write operators: INSERT, UPDATE, DELETE over either storage
method (Sections 3.1 and 3.2).

These are thin routing layers: flat tables use the single-pass dummy-write
algorithms implemented in :class:`~repro.storage.flat.FlatStorage`; indexed
tables use the padded B+ tree mutations.  A predicate-based update or
delete finds the index's affected rows first and then applies one padded
operation per row — the operation count equals the number of affected rows,
which is the leaked "output size" of the statement.  When the predicate
pins the key column to an interval (the compiler's call, recorded on the
``WriteNode``: the rule ``SELECT`` uses), the candidates come from one
padded range lookup over that interval, which leaks the segment's size as
the same ``SELECT`` would; otherwise from the oblivious linear scan of
every bucket.  Whether an UPDATE rewrites each index row in place or
deletes and re-inserts it is public too: the latter exactly when the
statement assigns the key column (``WriteNode.assigns_key``), never by the
new key's value.
"""

from __future__ import annotations

from typing import Callable

from ..enclave.errors import StorageError
from ..storage.schema import Row, Value
from ..storage.table import Table
from .predicate import Interval, Predicate, RowPredicate


def oblivious_insert(table: Table, row: Row, fast: bool = False) -> None:
    """Insert into every representation the table maintains."""
    table.insert(row, fast=fast)


def _index_matches(
    table: Table, matcher: RowPredicate, interval: Interval | None
) -> list[Row]:
    """The index's rows that satisfy ``matcher``: out of the key segment
    ``interval`` bounds (a superset of the matches) when one is given, else
    out of a linear scan."""
    assert table.indexed is not None
    if interval is None:
        candidates = table.indexed.linear_scan()
    else:
        candidates = table.indexed.range_lookup(
            interval.low, interval.high, interval.low_open, interval.high_open
        )
    return [row for row in candidates if matcher(row)]


def oblivious_update(
    table: Table,
    predicate: Predicate,
    assign: Callable[[Row], Row],
    interval: Interval | None = None,
    assigns_key: bool = False,
) -> int:
    """Update all rows matching ``predicate``; returns the count.

    On flat (or BOTH) tables this is one uniform pass.  The index's rows
    are found through ``interval`` — the key interval ``predicate``
    implies, when the plan chose the index range — or by linear scan.

    ``assigns_key`` is public — whether ``assign`` may set the key column
    (the statement's SET list names it).  Then every affected index row is
    deleted and re-inserted, both padded, whatever its new key, so whether
    a row kept its key does not show; otherwise each is rewritten in place,
    and the tree refuses an ``assign`` that changes the key.
    """
    # Compiled up front: an unknown column fails before any pass starts.
    matcher = predicate.compile(table.schema)
    updated = 0
    if table.flat is not None:
        try:
            updated = table.flat.update(predicate, assign)
        except BaseException:
            # The pass may have landed a prefix of its chunks: bump the
            # revision so the epoch says the table changed.
            table.bump_revision()
            raise
    if table.indexed is not None:
        key_index = table.schema.column_index(table.indexed.key_column)
        affected = _index_matches(table, matcher, interval)
        try:
            for row in affected:
                new_row = table.schema.validate_row(assign(row))
                if assigns_key:
                    table.indexed.tree.delete(row[key_index])
                    table.indexed.tree.insert(new_row)
                else:
                    table.indexed.tree.update(row[key_index], new_row)
        except BaseException:
            table.bump_revision()
            raise
        if table.flat is None:
            updated = len(affected)
    return updated


def oblivious_delete(
    table: Table, predicate: Predicate, interval: Interval | None = None
) -> int:
    """Delete all rows matching ``predicate``; returns the count
    (``interval`` as in :func:`oblivious_update`)."""
    matcher = predicate.compile(table.schema)
    deleted = 0
    if table.flat is not None:
        try:
            deleted = table.flat.delete(predicate)
        except BaseException:
            table.bump_revision()
            raise
    if table.indexed is not None:
        key_index = table.schema.column_index(table.indexed.key_column)
        affected_keys: list[Value] = [
            row[key_index] for row in _index_matches(table, matcher, interval)
        ]
        try:
            for key in affected_keys:
                if not table.indexed.tree.delete(key):
                    raise StorageError(
                        "index out of sync: key found by scan but not by delete"
                    )
        except BaseException:
            table.bump_revision()
            raise
        if table.flat is None:
            deleted = len(affected_keys)
    return deleted
