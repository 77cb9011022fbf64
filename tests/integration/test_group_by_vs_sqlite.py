"""Differential test: GROUP BY over a flat table against stdlib ``sqlite3``,
one group either side of the point where the group table overflows
oblivious memory.

On a default table the hash build's group table is the answer when it
fits (``GroupByNode.in_enclave``, ``output_rows`` left ``None``); one more
group overflows it, and the sorted fallback answers over untrusted memory
and records its padded size.  The paper's table writes every result to an
output table.  Rows must equal sqlite3's, in order where the statement
orders.
"""

from __future__ import annotations

import random
import sqlite3

import pytest

from repro import ObliDB
from repro.planner import GroupByNode
from repro.storage import Schema, int_column

SCHEMA = Schema([int_column("id"), int_column("grp"), int_column("amount")])
CAPACITY = 64
#: Oblivious memory one group of two aggregates takes: its INT key and two
#: 8-byte accumulators.
GROUP_BYTES = 8 + 2 * 8
_rng = random.Random(21)
ROWS = [(i, (i * 7) % 30, _rng.randrange(1000)) for i in range(CAPACITY - 4)]
#: Groups the budget holds.
FIT = 12


def build(oram_kind: str, groups: int) -> tuple[ObliDB, sqlite3.Connection]:
    """Room for exactly ``groups`` groups' accumulators while the statement
    runs."""
    db = ObliDB(oblivious_memory_bytes=1 << 16, cipher="null", seed=4)
    db.create_table("t", SCHEMA, CAPACITY, oram_kind=oram_kind)
    db.insert_many("t", ROWS, fast=True)
    account = db.enclave.oblivious
    account.allocate(account.free_bytes - groups * GROUP_BYTES)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE t (id INT, grp INT, amount INT)")
    oracle.executemany("INSERT INTO t VALUES (?, ?, ?)", ROWS)
    return db, oracle


@pytest.mark.parametrize("oram_kind", ["path", "paper"])
@pytest.mark.parametrize("extra", [0, 1])
def test_group_by_either_side_of_the_overflow_agrees_with_sqlite(
    oram_kind: str, extra: int
) -> None:
    db, oracle = build(oram_kind, FIT)
    where = f"grp < {FIT + extra}"
    for sql, ordered in (
        (f"SELECT grp, COUNT(*), SUM(amount) FROM t WHERE {where} GROUP BY grp", False),
        (
            f"SELECT grp, MAX(amount), COUNT(*) FROM t WHERE {where} GROUP BY grp"
            " ORDER BY grp DESC LIMIT 5",
            True,
        ),
    ):
        result = db.sql(sql)
        node = result.plan.root
        assert isinstance(node, GroupByNode)
        assert node.in_enclave is (oram_kind == "path"), sql
        held = oram_kind == "path" and not extra
        assert (node.output_rows is None) is held, sql
        if held:
            assert result.cost["untrusted_writes"] == 0, sql
        elif extra:
            assert node.output_rows > CAPACITY, sql  # the sorted fallback
        expected = oracle.execute(sql).fetchall()
        if ordered:
            assert result.rows == expected, sql
        else:
            assert sorted(result.rows) == sorted(expected), sql
    assert db.verify().ok
