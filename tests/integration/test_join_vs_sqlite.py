"""Differential test: join statements against stdlib ``sqlite3``.

A join consumes the statement's WHERE and column list at its emit, so the
answers of every statement shape that can sit on a join are checked against
an engine we did not write — rows equal modulo order — for each forced join
algorithm and in padding mode.  ObliDB drops table qualifiers and renames a
colliding right-hand column (``visits.uid`` → ``r_uid``); where that makes
the two dialects differ a case carries its own sqlite text.
"""

from __future__ import annotations

import functools
import random
import sqlite3

import pytest

from repro import ObliDB, PaddingConfig
from repro.planner import JoinAlgorithm, JoinNode, plan_join
from repro.planner import compile as plan_compiler

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


def build(padding: PaddingConfig | None = None) -> tuple[ObliDB, sqlite3.Connection]:
    rng = random.Random(12)
    users = [(uid, uid % 3, ("gold", "std")[uid % 2]) for uid in range(12)]
    # uids 12..14 have no user: key misses next to predicate misses.
    visits = [
        (vid, rng.randrange(15), rng.randrange(30), 1000 + 17 * vid) for vid in range(30)
    ]
    db = ObliDB(cipher="null", seed=4, padding=padding)
    db.sql("CREATE TABLE users (uid INT, region INT, tier STR(4)) CAPACITY 16")
    db.sql("CREATE TABLE visits (vid INT, uid INT, day INT, amount INT) CAPACITY 40")
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
        assert result.plan.find(JoinNode).algorithm is forced
        expected = oracle.execute(sqlite_sql or sql).fetchall()
        assert sorted(result.rows) == sorted(expected), sql
    for sql in ORDERED_CASES:
        assert db.sql(sql).rows == oracle.execute(sql).fetchall(), sql
    # LIMIT without ORDER BY keeps any ``limit`` of the matching rows.
    limited = db.sql(f"SELECT vid, day {JOIN} WHERE visits.day < 20 LIMIT 4").rows
    full = oracle.execute(f"SELECT vid, day {JOIN} WHERE visits.day < 20").fetchall()
    assert len(limited) == 4 and set(limited) <= set(full)


def test_padding_bound_applies_to_the_matched_count(forced: JoinAlgorithm) -> None:
    """The join's |T2|-slot output is already data-independent, so padding
    mode adds no pass; ``pad_rows`` still bounds what the WHERE may keep."""
    from repro.enclave import QueryError

    db, oracle = build(PaddingConfig(pad_rows=5, pad_groups=8))
    regions = db.enclave.untrusted.region_names()
    kept = db.sql(f"SELECT vid {JOIN} WHERE visits.amount < 1060").rows
    assert sorted(kept) == sorted(
        oracle.execute(f"SELECT vid {JOIN} WHERE visits.amount < 1060").fetchall()
    )
    with pytest.raises(QueryError, match="exceeds padding bound"):
        db.sql(f"SELECT vid {JOIN}")
    assert db.enclave.untrusted.region_names() == regions  # intermediates freed
