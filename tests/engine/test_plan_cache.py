"""Tests for the plan-keyed result cache (`repro.engine.plan_cache`).

Functional behaviour here; the trace-level acceptance criteria — a hit
performs zero untrusted-memory accesses, a miss leaves the trace identical
to a cache-less run — live in tests/security/test_engine_obliviousness.py.
"""

from __future__ import annotations

import pytest

from repro import ObliDB
from repro.engine import PlanCache


@pytest.fixture
def db() -> ObliDB:
    db = ObliDB(cipher="null", seed=21, result_cache_entries=8)
    db.sql("CREATE TABLE t (k INT, v INT) CAPACITY 32 METHOD both KEY k")
    for i in range(10):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10})")
    return db


class TestHitsAndMisses:
    def test_repeated_query_hits(self, db: ObliDB) -> None:
        sql = "SELECT * FROM t WHERE v >= 40"
        first = db.sql(sql)
        second = db.sql(sql)
        assert second.rows == first.rows
        assert second.column_names == first.column_names
        assert second.cost == {"cache_hits": 1}
        assert db.result_cache.hits == 1

    def test_hit_preserves_leaked_plan(self, db: ObliDB) -> None:
        sql = "SELECT * FROM t WHERE v >= 40"
        first = db.sql(sql)
        second = db.sql(sql)
        assert second.plan is not None
        assert second.plan.cache_key == first.plan.cache_key
        assert second.plan.describe() == first.plan.describe()

    def test_different_parameters_do_not_collide(self, db: ObliDB) -> None:
        """Two queries with equal plans but different hidden parameters
        must be distinct cache entries."""
        a = db.sql("SELECT * FROM t WHERE k = 3")
        b = db.sql("SELECT * FROM t WHERE k = 7")
        assert a.rows != b.rows
        assert db.result_cache.hits == 0
        assert db.sql("SELECT * FROM t WHERE k = 3").rows == a.rows
        assert db.sql("SELECT * FROM t WHERE k = 7").rows == b.rows
        assert db.result_cache.hits == 2

    def test_hit_result_is_isolated(self, db: ObliDB) -> None:
        sql = "SELECT * FROM t WHERE k = 1"
        first = db.sql(sql)
        first.rows.append(("corrupted",))
        assert db.sql(sql).rows == [(1, 10)]

    def test_join_and_aggregate_queries_cache(self, db: ObliDB) -> None:
        db.sql("CREATE TABLE u (k INT) CAPACITY 8")
        db.sql("INSERT INTO u VALUES (3)")
        for sql in (
            "SELECT COUNT(*) FROM t WHERE v < 50",
            "SELECT k, COUNT(*) FROM t GROUP BY k",
            "SELECT * FROM t JOIN u ON t.k = u.k",
        ):
            first = db.sql(sql)
            assert db.sql(sql).rows == first.rows
        assert db.result_cache.hits == 3

    def test_explain_not_cached(self, db: ObliDB) -> None:
        db.sql("EXPLAIN SELECT * FROM t WHERE k = 1")
        db.sql("EXPLAIN SELECT * FROM t WHERE k = 1")
        assert db.result_cache.hits == 0


class TestInvalidation:
    def test_sql_write_invalidates(self, db: ObliDB) -> None:
        sql = "SELECT COUNT(*) FROM t"
        assert db.sql(sql).scalar() == 10
        db.sql("INSERT INTO t VALUES (10, 100)")
        assert db.sql(sql).scalar() == 11

    def test_update_and_delete_invalidate(self, db: ObliDB) -> None:
        sql = "SELECT v FROM t WHERE k = 2"
        assert db.sql(sql).rows == [(20,)]
        db.sql("UPDATE t SET v = 21 WHERE k = 2")
        assert db.sql(sql).rows == [(21,)]
        db.sql("DELETE FROM t WHERE k = 2")
        assert db.sql(sql).rows == []

    def test_typed_insert_invalidates(self, db: ObliDB) -> None:
        sql = "SELECT COUNT(*) FROM t"
        assert db.sql(sql).scalar() == 10
        db.insert("t", (11, 110))
        assert db.sql(sql).scalar() == 11
        db.insert_many("t", [(12, 120), (13, 130)])
        assert db.sql(sql).scalar() == 13

    def test_write_to_other_table_keeps_entries(self, db: ObliDB) -> None:
        db.sql("CREATE TABLE other (x INT) CAPACITY 8")
        sql = "SELECT COUNT(*) FROM t"
        db.sql(sql)
        db.sql("INSERT INTO other VALUES (1)")
        db.sql(sql)
        assert db.result_cache.hits == 1

    def test_join_entry_invalidated_by_either_side(self, db: ObliDB) -> None:
        db.sql("CREATE TABLE u (k INT) CAPACITY 8")
        db.sql("INSERT INTO u VALUES (3)")
        sql = "SELECT COUNT(*) FROM t JOIN u ON t.k = u.k"
        assert db.sql(sql).scalar() == 1
        db.sql("INSERT INTO u VALUES (4)")
        assert db.sql(sql).scalar() == 2
        db.sql("DELETE FROM t WHERE k = 4")
        assert db.sql(sql).scalar() == 1

    def test_drop_and_recreate_does_not_serve_stale(self, db: ObliDB) -> None:
        sql = "SELECT COUNT(*) FROM t"
        assert db.sql(sql).scalar() == 10
        db.drop_table("t")
        db.sql("CREATE TABLE t (k INT, v INT) CAPACITY 32 METHOD both KEY k")
        assert db.sql(sql).scalar() == 0


class TestBounds:
    def test_lru_eviction_bounds_entries(self) -> None:
        db = ObliDB(cipher="null", seed=5, result_cache_entries=4)
        db.sql("CREATE TABLE t (k INT) CAPACITY 16")
        for i in range(8):
            db.sql(f"INSERT INTO t VALUES ({i})")
        for i in range(6):
            db.sql(f"SELECT * FROM t WHERE k = {i}")
        assert len(db.result_cache) == 4
        # Oldest entries evicted, newest retained.
        db.sql("SELECT * FROM t WHERE k = 0")
        assert db.result_cache.hits == 0
        db.sql("SELECT * FROM t WHERE k = 5")
        assert db.result_cache.hits == 1

    def test_cache_disabled_by_default(self) -> None:
        db = ObliDB(cipher="null", seed=6)
        assert db.result_cache is None
        db.sql("CREATE TABLE t (k INT) CAPACITY 8")
        db.sql("INSERT INTO t VALUES (1)")
        first = db.sql("SELECT * FROM t")
        second = db.sql("SELECT * FROM t")
        assert first.rows == second.rows
        assert "cache_hits" not in second.cost

    def test_invalid_sizes_rejected(self) -> None:
        with pytest.raises(ValueError):
            PlanCache(0)


class TestUncacheableStatements:
    def test_address_repr_predicate_bypasses_cache(self, db: ObliDB) -> None:
        """A user-defined Predicate without a structural repr must not be
        cached: its default repr is a memory address, which allocator
        reuse could collide — the statement is executed fresh each time."""
        from repro.operators.predicate import Predicate

        class EvenKeys(Predicate):
            def compile(self, schema):
                k = schema.column_index("k")
                return lambda row: row[k] % 2 == 0

            def columns(self):
                return {"k"}

        first = db.select("t", where=EvenKeys())
        second = db.select("t", where=EvenKeys())
        assert first.rows == second.rows
        assert db.result_cache.hits == 0
        assert len(db.result_cache) == 0

    def test_padding_overflow_frees_output(self) -> None:
        """check_fits raising (real rows exceed the padded bound) is an
        expected error: the padded scratch must be released, not leaked."""
        from repro import PaddingConfig

        db = ObliDB(cipher="null", seed=7, padding=PaddingConfig(pad_rows=2, pad_groups=2))
        db.sql("CREATE TABLE p (k INT) CAPACITY 16")
        for i in range(8):
            db.sql(f"INSERT INTO p VALUES ({i})")
        regions_before = set(db.enclave.untrusted.region_names())
        for _ in range(3):
            with pytest.raises(Exception):
                db.sql("SELECT * FROM p WHERE k < 6")  # 6 rows > pad_rows=2
            with pytest.raises(Exception):
                db.sql("SELECT k, COUNT(*) FROM p GROUP BY k")  # 8 groups > 2
        assert set(db.enclave.untrusted.region_names()) == regions_before


class TestEntryIdentity:
    def test_entry_records_plan_identity(self, db: ObliDB) -> None:
        """Each cached entry pins the compiled plan's cache_key — the
        plan-identity digest the analysis layer uses — so entry identity
        and leaked-plan identity stay explicitly linked."""
        sql = "SELECT * FROM t WHERE v >= 40"
        result = db.sql(sql)
        entries = list(db.result_cache._entries.values())
        assert len(entries) == 1
        assert entries[0].plan_key == result.plan.cache_key
        assert entries[0].tables == ("t",)
