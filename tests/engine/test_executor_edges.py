"""Edge-case tests for the executor and SQL surface."""

from __future__ import annotations

import pytest

from repro import ObliDB, StorageMethod
from repro.engine import parse
from repro.storage import Schema, int_column, str_column


@pytest.fixture
def db() -> ObliDB:
    db = ObliDB(cipher="null", seed=31)
    db.sql("CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 32 METHOD both KEY k")
    for i in range(10):
        db.sql(f"INSERT INTO t VALUES ({i}, {i * 10}, 's{i}')")
    return db


class TestNegativeLiterals:
    def test_negative_int_predicate(self, db: ObliDB) -> None:
        db.sql("INSERT INTO t VALUES (-5, -50, 'neg')")
        result = db.sql("SELECT * FROM t WHERE k = -5")
        assert result.rows == [(-5, -50, "neg")]

    def test_negative_range_over_index(self, db: ObliDB) -> None:
        db.sql("INSERT INTO t VALUES (-3, 1, 'a')")
        db.sql("INSERT INTO t VALUES (-2, 2, 'b')")
        result = db.sql("SELECT k FROM t WHERE k >= -3 AND k <= -2")
        assert sorted(result.rows) == [(-3,), (-2,)]

    def test_negative_in_update_and_values(self, db: ObliDB) -> None:
        db.sql("UPDATE t SET v = -999 WHERE k = 1")
        assert db.sql("SELECT v FROM t WHERE k = 1").rows == [(-999,)]

    def test_bare_minus_rejected(self) -> None:
        from repro.enclave import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            parse("INSERT INTO t VALUES (-)")


class TestQueryEdges:
    def test_select_on_empty_table(self) -> None:
        db = ObliDB(cipher="null", seed=1)
        db.sql("CREATE TABLE e (x INT) CAPACITY 8")
        assert db.sql("SELECT * FROM e").rows == []
        assert db.sql("SELECT COUNT(*) FROM e").scalar() == 0
        assert db.sql("SELECT * FROM e WHERE x = 1 ORDER BY x LIMIT 5").rows == []

    def test_where_always_false(self, db: ObliDB) -> None:
        result = db.sql("SELECT * FROM t WHERE k > 100 AND k < 0")
        assert result.rows == []

    def test_where_always_true_tautology(self, db: ObliDB) -> None:
        result = db.sql("SELECT COUNT(*) FROM t WHERE k >= 0 OR k < 0")
        assert result.scalar() == 10

    def test_unknown_column_in_where(self, db: ObliDB) -> None:
        with pytest.raises(Exception):
            db.sql("SELECT * FROM t WHERE ghost = 1")

    def test_unknown_projection_column(self, db: ObliDB) -> None:
        with pytest.raises(Exception):
            db.sql("SELECT ghost FROM t")

    def test_update_no_matches(self, db: ObliDB) -> None:
        result = db.sql("UPDATE t SET v = 1 WHERE k = 999")
        assert result.affected == 0

    def test_delete_everything(self, db: ObliDB) -> None:
        result = db.sql("DELETE FROM t")
        assert result.affected == 10
        assert db.sql("SELECT COUNT(*) FROM t").scalar() == 0
        # Insert after mass delete still works through both representations.
        db.sql("INSERT INTO t VALUES (1, 2, 'x')")
        assert db.point_lookup("t", 1) == [(1, 2, "x")]

    def test_group_by_with_all_filtered(self, db: ObliDB) -> None:
        result = db.sql("SELECT s, COUNT(*) FROM t WHERE k > 99 GROUP BY s")
        assert result.rows == []

    def test_join_empty_side(self, db: ObliDB) -> None:
        db.sql("CREATE TABLE empty (k INT) CAPACITY 4")
        result = db.sql("SELECT * FROM t JOIN empty ON t.k = empty.k")
        assert result.rows == []

    def test_self_join_runs_and_counts_every_row(self, db: ObliDB) -> None:
        """A self-join runs: both sides read the one table, and on its
        unique key every row matches itself.  Its trace is checked against
        SIM in ``tests/analysis/test_simulator_nodes.py::TestSelfJoin``."""
        result = db.sql("SELECT COUNT(*) FROM t JOIN t ON k = k")
        assert result.scalar() == 10

    def test_point_query_string_key_index(self) -> None:
        db = ObliDB(cipher="null", seed=2)
        db.sql(
            "CREATE TABLE logs (date STR(10), n INT)"
            " CAPACITY 32 METHOD both KEY date"
        )
        for month in range(1, 10):
            db.sql(f"INSERT INTO logs VALUES ('2018-0{month}-01', {month})")
        result = db.sql("SELECT * FROM logs WHERE date = '2018-04-01'")
        assert result.rows == [("2018-04-01", 4)]
        result = db.sql(
            "SELECT n FROM logs WHERE date > '2018-03-15' AND date < '2018-06-15'"
        )
        assert sorted(result.rows) == [(4,), (5,), (6,)]

    def test_many_column_table(self) -> None:
        columns = [int_column(f"c{i}") for i in range(12)]
        db = ObliDB(cipher="null", seed=3)
        db.create_table("wide", Schema(columns), 8)
        row = tuple(range(12))
        db.insert("wide", row)
        assert db.sql("SELECT * FROM wide").rows == [row]
        assert db.sql("SELECT c11, c0 FROM wide").rows == [(11, 0)]

    def test_aggregate_on_string_column(self, db: ObliDB) -> None:
        result = db.sql("SELECT MIN(s), MAX(s) FROM t")
        assert result.rows == [("s0", "s9")]

    def test_capacity_full_insert_raises(self) -> None:
        db = ObliDB(cipher="null", seed=4)
        db.sql("CREATE TABLE small (x INT) CAPACITY 2")
        db.sql("INSERT INTO small VALUES (1)")
        db.sql("INSERT INTO small VALUES (2)")
        with pytest.raises(Exception):
            db.sql("INSERT INTO small VALUES (3)")


class TestOramKindPlumbing:
    @pytest.mark.parametrize("kind", ["path", "paper", "ring", "recursive"])
    def test_create_table_with_oram_kind(self, kind: str) -> None:
        db = ObliDB(cipher="null", seed=5)
        schema = Schema([int_column("k"), str_column("v", 8)])
        db.create_table(
            "t", schema, 64,
            method=StorageMethod.INDEXED, key_column="k", oram_kind=kind,
        )
        table = db.table("t")
        for i in range(20):
            table.insert((i, f"v{i}"))
        assert db.point_lookup("t", 11) == [(11, "v11")]
        result = db.sql("SELECT * FROM t WHERE k >= 5 AND k <= 7")
        assert sorted(result.rows) == [(5, "v5"), (6, "v6"), (7, "v7")]

    def test_unknown_oram_kind_rejected(self) -> None:
        db = ObliDB(cipher="null", seed=6)
        schema = Schema([int_column("k")])
        with pytest.raises(Exception):
            db.create_table(
                "t", schema, 8,
                method=StorageMethod.INDEXED, key_column="k", oram_kind="quantum",
            )
