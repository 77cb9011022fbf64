"""Integration tests for the ObliDB facade: SQL in, results out."""

from __future__ import annotations

import pytest

from repro import ObliDB
from repro.enclave import QueryError, StorageError
from repro.planner import IndexLookupNode


@pytest.fixture
def db() -> ObliDB:
    db = ObliDB(cipher="null", seed=42)
    db.sql(
        "CREATE TABLE emp (id INT, dept STR(8), salary INT) "
        "CAPACITY 64 METHOD both KEY id"
    )
    for i in range(20):
        db.sql(f"INSERT INTO emp VALUES ({i}, 'd{i % 4}', {1000 + i * 10})")
    return db


class TestCatalog:
    def test_create_and_list(self, db: ObliDB) -> None:
        assert db.table_names() == ["emp"]
        db.sql("CREATE TABLE t2 (x INT) CAPACITY 4")
        assert db.table_names() == ["emp", "t2"]

    def test_duplicate_table_rejected(self, db: ObliDB) -> None:
        with pytest.raises(StorageError):
            db.sql("CREATE TABLE emp (x INT) CAPACITY 4")

    def test_drop_table(self, db: ObliDB) -> None:
        db.drop_table("emp")
        assert db.table_names() == []
        with pytest.raises(StorageError):
            db.drop_table("emp")

    def test_unknown_table_rejected(self, db: ObliDB) -> None:
        with pytest.raises(QueryError):
            db.sql("SELECT * FROM ghost")

    def test_unknown_method_rejected(self) -> None:
        db = ObliDB(cipher="null")
        with pytest.raises(QueryError):
            db.sql("CREATE TABLE t (x INT) METHOD quantum")


class TestSelects:
    def test_point_query_via_index(self, db: ObliDB) -> None:
        result = db.sql("SELECT * FROM emp WHERE id = 7")
        assert result.rows == [(7, "d3", 1070)]
        assert result.plan.find(IndexLookupNode) is not None

    def test_range_query_via_index(self, db: ObliDB) -> None:
        result = db.sql("SELECT * FROM emp WHERE id >= 5 AND id <= 8")
        assert sorted(row[0] for row in result.rows) == [5, 6, 7, 8]

    def test_non_key_predicate_scans_flat(self, db: ObliDB) -> None:
        result = db.sql("SELECT * FROM emp WHERE dept = 'd1'")
        assert sorted(row[0] for row in result.rows) == [1, 5, 9, 13, 17]
        assert result.plan.find(IndexLookupNode) is None

    def test_projection(self, db: ObliDB) -> None:
        result = db.sql("SELECT salary, id FROM emp WHERE id = 3")
        assert result.rows == [(1030, 3)]
        assert result.column_names == ["salary", "id"]

    def test_aggregate(self, db: ObliDB) -> None:
        result = db.sql("SELECT COUNT(*), MIN(salary), MAX(salary) FROM emp")
        assert result.rows == [(20, 1000, 1190)]

    def test_fused_aggregate_with_where(self, db: ObliDB) -> None:
        result = db.sql("SELECT SUM(salary) FROM emp WHERE dept = 'd0'")
        expected = sum(1000 + i * 10 for i in range(20) if i % 4 == 0)
        assert result.scalar() == expected

    def test_group_by(self, db: ObliDB) -> None:
        result = db.sql("SELECT dept, COUNT(*) FROM emp GROUP BY dept")
        assert sorted(result.rows) == [
            ("d0", 5.0), ("d1", 5.0), ("d2", 5.0), ("d3", 5.0),
        ]

    def test_empty_result(self, db: ObliDB) -> None:
        result = db.sql("SELECT * FROM emp WHERE id = 999")
        assert result.rows == []

    def test_cost_recorded(self, db: ObliDB) -> None:
        result = db.sql("SELECT COUNT(*) FROM emp")
        assert result.cost["untrusted_reads"] > 0


class TestWrites:
    def test_update(self, db: ObliDB) -> None:
        result = db.sql("UPDATE emp SET salary = 9999 WHERE id = 4")
        assert result.affected == 1
        assert db.sql("SELECT salary FROM emp WHERE id = 4").rows == [(9999,)]

    def test_delete(self, db: ObliDB) -> None:
        result = db.sql("DELETE FROM emp WHERE dept = 'd2'")
        assert result.affected == 5
        assert db.sql("SELECT COUNT(*) FROM emp").scalar() == 15

    def test_insert_then_query(self, db: ObliDB) -> None:
        db.sql("INSERT INTO emp VALUES (100, 'new', 5000)")
        assert db.sql("SELECT * FROM emp WHERE id = 100").rows == [
            (100, "new", 5000)
        ]

    def test_typed_api(self, db: ObliDB) -> None:
        from repro import Comparison

        db.insert("emp", (200, "api", 1))
        result = db.select("emp", where=Comparison("id", "=", 200))
        assert result.rows == [(200, "api", 1)]
        assert db.point_lookup("emp", 200) == [(200, "api", 1)]


class TestRevisionEpochs:
    """Every mutation moves a table's revision epoch, and a dropped and
    recreated table never repeats one: the statement retry keys on it."""

    def test_drop_and_recreate_gets_a_new_epoch(self, db: ObliDB) -> None:
        before = db.table("emp").revision
        db.drop_table("emp")
        assert "emp" not in db.table_names()
        db.sql("CREATE TABLE emp (id INT, dept STR(8), salary INT) CAPACITY 64")
        assert db.table("emp").revision != before

    @pytest.mark.parametrize(
        "sql",
        [
            "INSERT INTO emp VALUES (30, 'd1', 5)",
            "UPDATE emp SET salary = 5 WHERE id = 3",
            "DELETE FROM emp WHERE salary > 1100",
        ],
    )
    def test_sql_write_moves_epoch(self, db: ObliDB, sql: str) -> None:
        db.sql("CREATE TABLE other (x INT) CAPACITY 4")
        before = {name: db.table(name).revision for name in ("emp", "other")}
        db.sql(sql)
        assert db.table("emp").revision != before["emp"]
        assert db.table("other").revision == before["other"]

    def test_typed_inserts_move_epoch(self, db: ObliDB) -> None:
        epochs = [db.table("emp").revision]
        db.insert("emp", (30, "d1", 5))
        epochs.append(db.table("emp").revision)
        db.insert_many("emp", [(31, "d2", 6), (32, "d3", 7)])
        epochs.append(db.table("emp").revision)
        assert len(set(epochs)) == 3


class TestJoins:
    @pytest.fixture
    def join_db(self) -> ObliDB:
        db = ObliDB(cipher="null", seed=7)
        db.sql("CREATE TABLE dept (name STR(8), budget INT) CAPACITY 8")
        db.sql("CREATE TABLE emp (id INT, dept STR(8)) CAPACITY 16")
        for i, name in enumerate(["d0", "d1", "d2"]):
            db.sql(f"INSERT INTO dept VALUES ('{name}', {100 * (i + 1)})")
        for i in range(10):
            db.sql(f"INSERT INTO emp VALUES ({i}, 'd{i % 3}')")
        return db

    def test_join_rows(self, join_db: ObliDB) -> None:
        result = join_db.sql(
            "SELECT * FROM dept JOIN emp ON dept.name = emp.dept"
        )
        assert len(result.rows) == 10
        for row in result.rows:
            assert row[0] == row[3]  # dept name matches

    def test_join_with_where(self, join_db: ObliDB) -> None:
        result = join_db.sql(
            "SELECT * FROM dept JOIN emp ON name = dept WHERE budget > 150"
        )
        assert all(row[1] > 150 for row in result.rows)

    def test_join_then_aggregate(self, join_db: ObliDB) -> None:
        result = join_db.sql(
            "SELECT SUM(budget) FROM dept JOIN emp ON name = dept"
        )
        # 4 emps in d0 (100), 3 in d1 (200), 3 in d2 (300)
        assert result.scalar() == 4 * 100 + 3 * 200 + 3 * 300

    def test_join_group_by(self, join_db: ObliDB) -> None:
        result = join_db.sql(
            "SELECT dept, COUNT(*) FROM dept JOIN emp ON name = dept GROUP BY dept"
        )
        assert sorted(result.rows) == [("d0", 4.0), ("d1", 3.0), ("d2", 3.0)]


class TestIndexOnlyTables:
    def test_full_scan_via_linear_fallback(self) -> None:
        db = ObliDB(cipher="null", seed=3)
        db.sql(
            "CREATE TABLE t (k INT, v STR(8)) CAPACITY 32 METHOD indexed KEY k"
        )
        for i in range(10):
            db.sql(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        result = db.sql("SELECT COUNT(*) FROM t")
        assert result.scalar() == 10
        result = db.sql("SELECT * FROM t WHERE v = 'v3'")
        assert result.rows == [(3, "v3")]
