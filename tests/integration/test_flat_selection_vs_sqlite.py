"""Differential test: flat selections against stdlib ``sqlite3``, on both
sides of the rule that makes the statistics pass Small's first pass.

The table's ``v`` column is a shuffled permutation of 0..63, so ``v < r``
keeps exactly r scattered rows.  The oblivious-memory budget gives Small an
eight-row buffer (S = 8), and r runs over 0, 1, S, S + 1 and 2S + 1: held
in the enclave up to S, Small resumed from the statistics pass above it (an
``ORDER BY`` over 17 rows no longer fits and sorts with the bitonic
network; without one its passes stream to the result).  Each statement
runs as ``SELECT *``, as a column list and as
``ORDER BY … LIMIT``, on a default table and on the paper's (which keeps the
pass and Small apart), through ``ObliDB`` and through an ``ObliDBServer``
session.  Rows must equal sqlite3's, in order where the statement orders.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro import ObliDB, ObliDBServer
from repro.planner import SelectNode, SortNode
from repro.storage import Schema, framed_size, int_column, str_column

SCHEMA = Schema(
    [int_column("id"), int_column("v"), int_column("price"), str_column("name", 8)]
)
_values = random.Random(13).sample(range(64), 64)
_prices = random.Random(12).sample(range(100, 1000), 64)
ROWS = [(key, _values[key], _prices[key], f"item{key}") for key in range(64)]
S = 8


def _statements(r: int) -> list[tuple[str, bool]]:
    """(SQL, ordered) for one |R|."""
    return [
        (f"SELECT * FROM items WHERE v < {r}", False),
        (f"SELECT price, id FROM items WHERE v < {r} AND id >= 0", False),
        (f"SELECT name, v FROM items WHERE v < {r} ORDER BY price DESC LIMIT 5", True),
        (f"SELECT id FROM items WHERE v < {r} ORDER BY price", True),
    ]


def build(oram_kind: str) -> tuple[ObliDB, sqlite3.Connection]:
    db = ObliDB(
        oblivious_memory_bytes=10 * framed_size(SCHEMA), cipher="null", seed=4
    )
    db.create_table("items", SCHEMA, 64, oram_kind=oram_kind)
    db.insert_many("items", ROWS, fast=True)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE items (id INT, v INT, price INT, name TEXT)")
    oracle.executemany("INSERT INTO items VALUES (?, ?, ?, ?)", ROWS)
    return db, oracle


@pytest.mark.parametrize("surface", ["db", "server"])
@pytest.mark.parametrize("oram_kind", ["path", "paper"])
def test_flat_selections_agree_with_sqlite(oram_kind: str, surface: str) -> None:
    db, oracle = build(oram_kind)
    server = ObliDBServer(db)
    execute = db.sql if surface == "db" else server.session("t").execute
    free = db.enclave.oblivious.free_bytes
    seen, sorts = set(), set()
    try:
        for r in (0, 1, S, S + 1, 2 * S + 1):
            for sql, ordered in _statements(r):
                result = execute(sql)
                select = result.plan.find(SelectNode)
                default = oram_kind != "paper"
                assert select.in_enclave is (default and r <= S), sql
                assert select.resumed is (default and r > S), sql
                assert select.streamed is (select.resumed and not ordered), sql
                seen.add((select.in_enclave, select.resumed))
                if ordered:
                    sorts.add(result.plan.find(SortNode).in_enclave)
                expected = oracle.execute(sql).fetchall()
                if ordered:
                    assert result.rows == expected, sql
                else:
                    assert sorted(result.rows) == sorted(expected), sql
                assert db.enclave.oblivious.free_bytes == free, sql
    finally:
        server.close()
    assert seen == (
        {(True, False), (False, True)} if oram_kind == "path" else {(False, False)}
    )
    assert sorts == {True, False}
    assert db.verify().ok


@pytest.mark.parametrize("oram_kind", ["path", "paper"])
def test_streamed_selection_with_a_limit_agrees_with_sqlite(oram_kind: str) -> None:
    """r = 2S + 1 under a LIMIT and no ORDER BY: on the default table
    Small's three passes hand their buffers to the result, so the statement
    allocates no region and writes nothing, and its rows are the first
    matches in table order, as sqlite3's are."""
    db, oracle = build(oram_kind)
    regions = db.enclave.untrusted.region_names()
    r = 2 * S + 1
    for sql in (
        f"SELECT * FROM items WHERE v < {r} LIMIT 3",
        f"SELECT name, id FROM items WHERE v < {r} LIMIT 12",
        f"SELECT id FROM items WHERE v < {r} AND price > 300 LIMIT 40",
    ):
        result = db.sql(sql)
        select = result.plan.find(SelectNode)
        assert select.streamed is (oram_kind == "path"), sql
        assert result.rows == oracle.execute(sql).fetchall(), sql
        if select.streamed:
            assert result.cost["untrusted_writes"] == 0, sql
        assert db.enclave.untrusted.region_names() == regions, sql
    assert db.verify().ok
