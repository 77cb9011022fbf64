"""Differential test: join statements against stdlib ``sqlite3``.

A join consumes the statement's WHERE and column list at its emit, so the
answers of every statement shape that can sit on a join are checked against
an engine we did not write — rows equal modulo order — for each forced join
algorithm and in padding mode.  A hash join whose output fits beside its
hash table holds it in the enclave (``JoinNode.in_enclave``), and every
shape is answered over the held rows; the held cases cover several hash
chunks, a ``SELECT *`` too wide to hold next to a ``COUNT(*)`` that is
held, and a repeated left key.  ObliDB drops table qualifiers and renames a
colliding right-hand column (``visits.uid`` → ``r_uid``); where that makes
the two dialects differ a case carries its own sqlite text.
"""

from __future__ import annotations

import functools
import random
import sqlite3

import pytest

from repro import ObliDB, PaddingConfig
from repro.enclave import QueryError
from repro.engine.database import DEFAULT_OBLIVIOUS_MEMORY_BYTES
from repro.planner import JoinAlgorithm, JoinNode, plan_join
from repro.planner import compile as plan_compiler
from repro.storage import Schema, framed_size, int_column, str_column

JOIN = "FROM users JOIN visits ON users.uid = visits.uid"

# (ObliDB statement, sqlite statement or None when the text is shared)
CASES: list[tuple[str, str | None]] = [
    # predicate on the left side only, the right side only, both sides
    (f"SELECT users.region, visits.amount {JOIN} WHERE users.region < 2", None),
    (f"SELECT users.region, visits.amount {JOIN} WHERE visits.day < 15", None),
    (f"SELECT tier, vid {JOIN} WHERE users.region >= 1 AND visits.amount > 1200", None),
    (f"SELECT vid {JOIN} WHERE tier = 'gold' OR NOT visits.day >= 4", None),
    # the collision-renamed right-hand join column
    (
        f"SELECT r_uid, day {JOIN} WHERE r_uid > 3",
        f"SELECT visits.uid, day {JOIN} WHERE visits.uid > 3",
    ),
    # SELECT * with and without a WHERE, and an explicit list without one
    (f"SELECT * {JOIN}", None),
    (f"SELECT * {JOIN} WHERE visits.day >= 10 AND visits.day < 20", None),
    (f"SELECT vid, region, tier {JOIN}", None),
    # an empty result
    (f"SELECT region, amount {JOIN} WHERE visits.day < 0", None),
    (f"SELECT COUNT(*) {JOIN} WHERE visits.day < 0", None),
    # aggregates and GROUP BY over a join
    (f"SELECT COUNT(*) {JOIN}", None),
    (f"SELECT COUNT(*), SUM(amount) {JOIN} WHERE visits.day < 15", None),
    (f"SELECT MIN(day), MAX(amount), AVG(region) {JOIN} WHERE region > 0", None),
    (f"SELECT region, COUNT(*), SUM(amount) {JOIN} WHERE day >= 5 GROUP BY region", None),
    (f"SELECT tier, MAX(amount) {JOIN} GROUP BY tier", None),
]

# Compared in order (amount is unique, so the order is total).
ORDERED_CASES = [
    # ORDER BY a column that is not in the select list, then LIMIT
    f"SELECT vid {JOIN} WHERE visits.day < 20 ORDER BY amount DESC LIMIT 5",
    f"SELECT * {JOIN} ORDER BY amount",
    f"SELECT tier, amount {JOIN} WHERE region = 1 ORDER BY amount DESC",
    f"SELECT region, SUM(amount) {JOIN} GROUP BY region ORDER BY region DESC LIMIT 2",
]


USERS = Schema([int_column("uid"), int_column("region"), str_column("tier", 4)])
VISITS = Schema(
    [int_column("vid"), int_column("uid"), int_column("day"), int_column("amount")]
)
#: One users row in the hash join's table.
HASH_ROW = framed_size(USERS) + 16


def build(
    padding: PaddingConfig | None = None,
    oblivious_memory_bytes: int = DEFAULT_OBLIVIOUS_MEMORY_BYTES,
    users_capacity: int = 16,
    visits_capacity: int = 40,
    keys: list[int] | None = None,
) -> tuple[ObliDB, sqlite3.Connection]:
    """``keys`` are the users' uids (0..11 by default)."""
    rng = random.Random(12)
    keys = list(range(12)) if keys is None else keys
    users = [(uid, uid % 3, ("gold", "std")[uid % 2]) for uid in keys]
    # uids 12..14 have no user: key misses next to predicate misses.
    visits = [
        (vid, rng.randrange(15), rng.randrange(30), 1000 + 17 * vid)
        for vid in range(min(30, visits_capacity))
    ]
    db = ObliDB(
        cipher="null",
        seed=4,
        padding=padding,
        oblivious_memory_bytes=oblivious_memory_bytes,
        keep_trace_events=True,
    )
    db.create_table("users", USERS, users_capacity)
    db.create_table("visits", VISITS, visits_capacity)
    db.insert_many("users", users, fast=True)
    db.insert_many("visits", visits, fast=True)
    oracle = sqlite3.connect(":memory:")
    oracle.execute("CREATE TABLE users (uid INT, region INT, tier TEXT)")
    oracle.execute("CREATE TABLE visits (vid INT, uid INT, day INT, amount INT)")
    oracle.executemany("INSERT INTO users VALUES (?, ?, ?)", users)
    oracle.executemany("INSERT INTO visits VALUES (?, ?, ?, ?)", visits)
    return db, oracle


@pytest.fixture(params=list(JoinAlgorithm), ids=lambda algorithm: algorithm.value)
def forced(request, monkeypatch) -> JoinAlgorithm:
    """Every join in the test compiles to the parametrized algorithm."""
    monkeypatch.setattr(
        plan_compiler, "plan_join", functools.partial(plan_join, force=request.param)
    )
    return request.param


@pytest.mark.parametrize("padded", [False, True], ids=["planned", "padded"])
def test_join_statements_agree_with_sqlite(forced: JoinAlgorithm, padded: bool) -> None:
    padding = PaddingConfig(pad_rows=40, pad_groups=8) if padded else None
    db, oracle = build(padding)
    for sql, sqlite_sql in CASES:
        result = db.sql(sql)
        join = result.plan.find(JoinNode)
        # A hash join's output fits beside its table at this size: held.
        assert (join.algorithm, join.in_enclave) == (forced, forced is JoinAlgorithm.HASH)
        expected = oracle.execute(sqlite_sql or sql).fetchall()
        assert sorted(result.rows) == sorted(expected), sql
    for sql in ORDERED_CASES:
        result = db.sql(sql)
        assert result.plan.find(JoinNode).in_enclave is (forced is JoinAlgorithm.HASH)
        assert result.rows == oracle.execute(sql).fetchall(), sql
    # LIMIT without ORDER BY keeps any ``limit`` of the matching rows.
    limited = db.sql(f"SELECT vid, day {JOIN} WHERE visits.day < 20 LIMIT 4").rows
    full = oracle.execute(f"SELECT vid, day {JOIN} WHERE visits.day < 20").fetchall()
    assert len(limited) == 4 and set(limited) <= set(full)


def test_padding_bound_applies_to_the_matched_count(forced: JoinAlgorithm) -> None:
    """The join's |T2|-slot output is already data-independent, so padding
    mode adds no pass; ``pad_rows`` still bounds what the WHERE may keep."""
    db, oracle = build(PaddingConfig(pad_rows=5, pad_groups=8))
    regions = db.enclave.untrusted.region_names()
    free = db.enclave.oblivious.free_bytes
    result = db.sql(f"SELECT vid {JOIN} WHERE visits.amount < 1060")
    assert result.plan.find(JoinNode).in_enclave is (forced is JoinAlgorithm.HASH)
    kept = result.rows
    assert sorted(kept) == sorted(
        oracle.execute(f"SELECT vid {JOIN} WHERE visits.amount < 1060").fetchall()
    )
    with pytest.raises(QueryError, match="exceeds padding bound"):
        db.sql(f"SELECT vid {JOIN}")
    assert db.enclave.untrusted.region_names() == regions  # intermediates freed
    assert db.enclave.oblivious.free_bytes == free  # held rows released


# ----------------------------------------------------------------------
# The held hash join at the edges of its rule
# ----------------------------------------------------------------------
#: Each emits one INT column: four of its 9-byte frames fit in less than
#: one hash-table row.
NARROW_CASES = [
    f"SELECT vid {JOIN}",
    f"SELECT vid {JOIN} WHERE visits.amount > 1020",
    f"SELECT COUNT(*) {JOIN}",
    f"SELECT MAX(amount) {JOIN} WHERE visits.day < 20",
    f"SELECT region, COUNT(*) {JOIN} GROUP BY region",
]


def test_a_held_join_over_several_hash_chunks() -> None:
    """Four hash-table rows and the held output of four visits: four
    chunks, each probing T2 with a read pass."""
    db, oracle = build(
        oblivious_memory_bytes=4 * HASH_ROW + 4 * 9, visits_capacity=4
    )
    for sql in NARROW_CASES + [f"SELECT vid {JOIN} ORDER BY vid DESC LIMIT 2"]:
        result = db.sql(sql)
        join = result.plan.find(JoinNode)
        assert (join.algorithm, join.in_enclave) == (JoinAlgorithm.HASH, True), sql
        assert -(-join.t1 // join.oblivious_rows) == 4, sql
        expected = oracle.execute(sql).fetchall()
        if "ORDER BY" in sql:
            assert result.rows == expected, sql
        else:
            assert sorted(result.rows) == sorted(expected), sql
        assert result.cost["untrusted_writes"] == 0, sql


def test_a_select_star_too_wide_to_hold_keeps_its_output_table() -> None:
    """One chunk of T1 with room for 40 narrow frames beside it but not for
    40 whole joined rows."""
    db, oracle = build(oblivious_memory_bytes=16 * HASH_ROW + 40 * 9)
    for sql, held in [(f"SELECT * {JOIN}", False), (f"SELECT COUNT(*) {JOIN}", True)]:
        result = db.sql(sql)
        join = result.plan.find(JoinNode)
        assert (join.algorithm, join.in_enclave) == (JoinAlgorithm.HASH, held), sql
        assert (result.cost["untrusted_writes"] == 0) is held, sql
        assert sorted(result.rows) == sorted(oracle.execute(sql).fetchall()), sql


def test_a_repeated_left_key_fails_with_the_held_joins_trace() -> None:
    """A left table that repeats a key raises after every pass: its trace
    is that of a successful held join of equal shape, and what it reserved
    comes back."""
    sql = f"SELECT region, amount {JOIN} WHERE visits.day < 15"
    digests = []
    for keys in (list(range(12)), list(range(11)) + [3]):
        db, _ = build(keys=keys)
        free = db.enclave.oblivious.free_bytes
        regions = db.enclave.untrusted.region_names()
        db.enclave.trace.clear()
        if len(set(keys)) == len(keys):
            assert db.sql(sql).plan.find(JoinNode).in_enclave
        else:
            with pytest.raises(QueryError, match="repeats a key"):
                db.sql(sql)
        digests.append(db.enclave.trace.digest())
        assert db.enclave.oblivious.free_bytes == free
        assert db.enclave.untrusted.region_names() == regions
    assert digests[0] == digests[1]
