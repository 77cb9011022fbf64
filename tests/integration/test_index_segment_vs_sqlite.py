"""Differential test: index statements against stdlib ``sqlite3``, on both
sides of the rule that answers a segment in the enclave.

Every statement shape that can sit on an index lookup — a point hit and a
miss, a range with a residual conjunct, open bounds, ``ORDER BY … LIMIT``,
``COUNT`` / ``SUM`` / ``AVG`` / ``MIN`` / ``MAX`` and ``GROUP BY`` over an
interval — runs three ways: at the default budget (the segment is held in
oblivious memory), at a budget squeezed to three rows short of one byte
(a one- or two-row segment is still held; a wider one spills to a flat
scratch, where Small gets a one-row buffer and the sort runs as a bitonic
network), and on the paper's index (which always spills).  Rows must equal
sqlite3's, in order where the statement has an ``ORDER BY``.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro import ObliDB
from repro.planner import IndexLookupNode
from repro.storage import Schema, StorageMethod, int_column, str_column
from repro.storage.rows import framed_size

SCHEMA = Schema(
    [int_column("id"), int_column("cat"), int_column("price"), str_column("name", 8)]
)
_prices = random.Random(8).sample(range(100, 1000), 40)
ROWS = [(key, key % 3, _prices[key], f"item{key}") for key in range(40)]

CASES = [
    "SELECT * FROM items WHERE id = 7",
    "SELECT * FROM items WHERE id = 99",
    "SELECT name, price FROM items WHERE id >= 5 AND id <= 20 AND cat = 1",
    "SELECT id FROM items WHERE id >= 5 AND id <= 20 AND cat = 9",
    "SELECT price, id FROM items WHERE id > 30 AND id < 36",
    "SELECT COUNT(*), SUM(price), AVG(price) FROM items WHERE id >= 5 AND id <= 20"
    " AND cat != 2",
    "SELECT MIN(price), MAX(price) FROM items WHERE id >= 5 AND id <= 20",
    "SELECT COUNT(*) FROM items WHERE id >= 100 AND id <= 120",
    "SELECT cat, COUNT(*), SUM(price) FROM items WHERE id >= 5 AND id <= 30 GROUP BY cat",
    "SELECT cat, MAX(price) FROM items WHERE id >= 2 AND id <= 4 AND price > 0 GROUP BY cat",
]

# Compared in order (prices are distinct, so the order is total).
ORDERED_CASES = [
    "SELECT id FROM items WHERE id >= 3 AND id <= 25 ORDER BY price DESC LIMIT 4",
    "SELECT price, id FROM items WHERE id >= 3 AND id <= 12 ORDER BY price",
    "SELECT * FROM items WHERE id >= 10 AND id <= 30 AND cat = 0 ORDER BY price LIMIT 3",
    "SELECT cat, SUM(price) FROM items WHERE id >= 5 AND id <= 30 GROUP BY cat"
    " ORDER BY cat DESC LIMIT 2",
]

FRAME = framed_size(SCHEMA)

#: mode -> (oram_kind, oblivious memory left free)
MODES = {
    "in_enclave": ("path", None),
    "spill": ("path", 3 * FRAME - 1),
    "paper": ("paper", None),
}


def build(mode: str) -> tuple[ObliDB, sqlite3.Connection]:
    oram_kind, free = MODES[mode]
    db = ObliDB(cipher="null", seed=4)
    db.create_table(
        "items", SCHEMA, 64, method=StorageMethod.BOTH, key_column="id", oram_kind=oram_kind
    )
    db.insert_many("items", ROWS)
    if free is not None:
        db.enclave.oblivious.allocate(db.enclave.oblivious.free_bytes - free)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE items (id INT, cat INT, price INT, name TEXT)")
    oracle.executemany("INSERT INTO items VALUES (?, ?, ?, ?)", ROWS)
    return db, oracle


@pytest.mark.parametrize("mode", sorted(MODES))
def test_index_statements_agree_with_sqlite(mode: str) -> None:
    db, oracle = build(mode)
    free = db.enclave.oblivious.free_bytes
    held = set()
    for sql in CASES + ORDERED_CASES:
        result = db.sql(sql)
        lookup = result.plan.find(IndexLookupNode)
        assert lookup.in_enclave is (
            mode != "paper" and lookup.segment_rows * FRAME <= free
        ), sql
        held.add(lookup.in_enclave)
        expected = oracle.execute(sql).fetchall()
        if sql in ORDERED_CASES:
            assert result.rows == expected, sql
        else:
            assert sorted(result.rows) == sorted(expected), sql
        assert db.enclave.oblivious.free_bytes == free, sql
    assert held == {"in_enclave": {True}, "spill": {True, False}, "paper": {False}}[mode]


#: Half-open key intervals whose excluded bound is a stored key -> keys
#: inside the interval.
HALF_OPEN = {
    "SELECT * FROM items WHERE id >= 5 AND id < 12": 7,
    "SELECT id, price FROM items WHERE id > 5 AND id <= 12": 7,
    "SELECT price, id FROM items WHERE id > 30 AND id < 36": 5,
    "SELECT COUNT(*), SUM(price) FROM items WHERE id > 37 AND id < 39": 1,
    "SELECT * FROM items WHERE id > 7 AND id < 8": 0,
    "SELECT cat, COUNT(*) FROM items WHERE id >= 10 AND id < 20 GROUP BY cat": 10,
}


@pytest.mark.parametrize("mode", sorted(MODES))
def test_half_open_intervals_read_only_their_keys(mode: str) -> None:
    """An excluded bound reaches the tree: the lookup's segment is the keys
    inside the interval, never the bound's record filtered out later."""
    db, oracle = build(mode)
    for sql, inside in HALF_OPEN.items():
        result = db.sql(sql)
        assert result.plan.find(IndexLookupNode).segment_rows == max(1, inside), sql
        assert sorted(result.rows) == sorted(oracle.execute(sql).fetchall()), sql
