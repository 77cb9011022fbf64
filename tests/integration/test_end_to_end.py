"""End-to-end integration tests: full workloads through the public API."""

from __future__ import annotations

import random

import pytest

from repro import ObliDB, StorageMethod
from repro.planner import IndexLookupNode
from repro.storage import Schema, int_column
from repro.workloads import (
    Q1_SQL,
    Q2_SQL,
    Q3_SQL,
    RANKINGS_SCHEMA,
    USERVISITS_SCHEMA,
    generate,
)


class TestBDBEndToEnd:
    """The Big Data Benchmark pipeline through SQL, checked for answers."""

    @pytest.fixture(scope="class")
    def db(self) -> ObliDB:
        data = generate(rankings_rows=300, uservisits_rows=300, seed=44)
        db = ObliDB(cipher="null", seed=44)
        db.create_table(
            "rankings", RANKINGS_SCHEMA, 300,
            method=StorageMethod.BOTH, key_column="pageRank",
        )
        db.create_table("uservisits", USERVISITS_SCHEMA, 300)
        rankings = db.table("rankings")
        for row in data.rankings:
            rankings.insert(row, fast=True)
        uservisits = db.table("uservisits")
        for row in data.uservisits:
            uservisits.insert(row, fast=True)
        self._data = data
        type(self).data = data
        return db

    def test_q1_filter(self, db: ObliDB) -> None:
        result = db.sql(Q1_SQL)
        expected = sorted(
            (row[0], row[1]) for row in self.data.rankings if row[1] > 1000
        )
        assert sorted(result.rows) == expected
        # The selective query must have used the index.
        assert result.plan.find(IndexLookupNode) is not None

    def test_q2_grouped_aggregation(self, db: ObliDB) -> None:
        result = db.sql(Q2_SQL)
        expected: dict[str, float] = {}
        for row in self.data.uservisits:
            expected[row[1]] = expected.get(row[1], 0.0) + row[4]
        assert len(result.rows) == len(expected)
        for prefix, revenue in result.rows:
            assert revenue == pytest.approx(expected[prefix])

    def test_q3_join_aggregate(self, db: ObliDB) -> None:
        result = db.sql(Q3_SQL)
        urls = {row[0] for row in self.data.rankings}
        expected_rows = [
            row for row in self.data.uservisits
            if row[3] < "1980-04-01" and row[2] in urls
        ]
        count, revenue = result.rows[0]
        assert count == len(expected_rows)
        assert revenue == pytest.approx(sum(row[4] for row in expected_rows))


class TestMixedLifecycle:
    """A long randomized session mixing DDL, writes, and reads."""

    def test_random_session_against_model(self) -> None:
        db = ObliDB(cipher="null", seed=99)
        db.sql(
            "CREATE TABLE kv (k INT, v INT) CAPACITY 128 METHOD both KEY k"
        )
        model: dict[int, int] = {}
        rng = random.Random(123)
        for step in range(120):
            action = rng.random()
            key = rng.randrange(40)
            if action < 0.45 and key not in model and len(model) < 100:
                db.sql(f"INSERT INTO kv VALUES ({key}, {step})")
                model[key] = step
            elif action < 0.65 and key in model:
                db.sql(f"UPDATE kv SET v = {step} WHERE k = {key}")
                model[key] = step
            elif action < 0.8 and key in model:
                db.sql(f"DELETE FROM kv WHERE k = {key}")
                del model[key]
            elif action < 0.9:
                result = db.sql(f"SELECT * FROM kv WHERE k = {key}")
                expected = [(key, model[key])] if key in model else []
                assert result.rows == expected
            else:
                result = db.sql("SELECT COUNT(*) FROM kv")
                assert result.scalar() == len(model)
        # Final state check through both access paths.
        rows = db.sql("SELECT * FROM kv").rows
        assert sorted(rows) == sorted(model.items())

    def test_table_growth_via_copy(self) -> None:
        """A table grown past initial capacity keeps its data."""
        db = ObliDB(cipher="null", seed=5)
        db.sql("CREATE TABLE t (x INT) CAPACITY 4")
        for i in range(4):
            db.sql(f"INSERT INTO t VALUES ({i})")
        table = db.table("t")
        bigger = table.require_flat().copy_to(capacity=16)
        assert sorted(bigger.rows()) == [(0,), (1,), (2,), (3,)]
        bigger.fast_insert((4,))
        assert len(bigger.rows()) == 5


class TestCrossRepresentationConsistency:
    def test_queries_agree_across_methods(self) -> None:
        """The same queries on flat-only, index-only, and combined tables
        must return identical answers."""
        schema = Schema([int_column("k"), int_column("g")])
        rows = [(i, i % 5) for i in range(30)]
        answers = []
        for method in (StorageMethod.FLAT, StorageMethod.INDEXED, StorageMethod.BOTH):
            db = ObliDB(cipher="null", seed=7)
            key = "k" if method is not StorageMethod.FLAT else None
            db.create_table("t", schema, 64, method=method, key_column=key)
            table = db.table("t")
            for row in rows:
                table.insert(row, fast=table.flat is not None)
            answers.append(
                (
                    sorted(db.sql("SELECT * FROM t WHERE k >= 10 AND k <= 14").rows),
                    sorted(db.sql("SELECT g, COUNT(*) FROM t GROUP BY g").rows),
                    db.sql("SELECT SUM(k) FROM t").scalar(),
                )
            )
        assert answers[0] == answers[1] == answers[2]
