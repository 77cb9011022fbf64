"""Tests for ORDER BY / LIMIT and EXPLAIN."""

from __future__ import annotations

import pytest

from repro import ObliDB
from repro.enclave import QueryError
from repro.engine import parse
from repro.planner import IndexLookupNode, JoinNode, SelectNode, SortNode, WriteNode


@pytest.fixture
def db() -> ObliDB:
    db = ObliDB(cipher="null", seed=8)
    db.sql("CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 64 METHOD both KEY k")
    values = [50, 10, 90, 30, 70, 20, 80, 40, 60, 0]
    for k, v in enumerate(values):
        db.sql(f"INSERT INTO t VALUES ({k}, {v}, 's{v}')")
    return db


class TestOrderByParsing:
    def test_order_by_default_asc(self) -> None:
        statement = parse("SELECT * FROM t ORDER BY v")
        assert statement.order_by == "v"
        assert not statement.descending
        assert statement.limit is None

    def test_order_by_desc_limit(self) -> None:
        statement = parse("SELECT * FROM t ORDER BY v DESC LIMIT 5")
        assert statement.descending
        assert statement.limit == 5

    def test_limit_alone(self) -> None:
        statement = parse("SELECT * FROM t LIMIT 3")
        assert statement.limit == 3

    def test_bad_limit_rejected(self) -> None:
        from repro.enclave import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            parse("SELECT * FROM t LIMIT many")

    def test_order_by_on_scalar_aggregate_rejected(self) -> None:
        with pytest.raises(QueryError):
            parse("SELECT COUNT(*) FROM t ORDER BY v")


class TestOrderByExecution:
    def test_ascending(self, db: ObliDB) -> None:
        result = db.sql("SELECT v FROM t ORDER BY v")
        assert [row[0] for row in result.rows] == sorted(range(0, 100, 10))

    def test_descending(self, db: ObliDB) -> None:
        result = db.sql("SELECT v FROM t ORDER BY v DESC")
        assert [row[0] for row in result.rows] == sorted(range(0, 100, 10), reverse=True)

    def test_order_by_string_column(self, db: ObliDB) -> None:
        result = db.sql("SELECT s FROM t ORDER BY s LIMIT 2")
        assert result.rows == [("s0",), ("s10",)]

    def test_limit_truncates(self, db: ObliDB) -> None:
        result = db.sql("SELECT v FROM t ORDER BY v LIMIT 3")
        assert [row[0] for row in result.rows] == [0, 10, 20]

    def test_limit_larger_than_result(self, db: ObliDB) -> None:
        result = db.sql("SELECT v FROM t WHERE v < 30 ORDER BY v LIMIT 100")
        assert [row[0] for row in result.rows] == [0, 10, 20]

    def test_limit_zero(self, db: ObliDB) -> None:
        result = db.sql("SELECT * FROM t LIMIT 0")
        assert result.rows == []

    def test_order_with_where(self, db: ObliDB) -> None:
        result = db.sql("SELECT v FROM t WHERE v >= 40 ORDER BY v DESC LIMIT 2")
        assert [row[0] for row in result.rows] == [90, 80]

    def test_group_by_order_by_group_column(self, db: ObliDB) -> None:
        db.sql("CREATE TABLE g (c INT, x INT) CAPACITY 16")
        for i in range(12):
            db.sql(f"INSERT INTO g VALUES ({i % 3}, {i})")
        result = db.sql("SELECT c, SUM(x) FROM g GROUP BY c ORDER BY c DESC")
        assert [row[0] for row in result.rows] == [2, 1, 0]

    def test_group_by_order_by_unknown_rejected(self, db: ObliDB) -> None:
        db.sql("CREATE TABLE g2 (c INT, x INT) CAPACITY 8")
        db.sql("INSERT INTO g2 VALUES (1, 1)")
        with pytest.raises(QueryError):
            db.sql("SELECT c, SUM(x) FROM g2 GROUP BY c ORDER BY ghost")

    def test_large_result_oblivious_sort_path(self) -> None:
        """With almost no oblivious memory the in-enclave sort can't fit,
        exercising the bitonic scratch path."""
        db = ObliDB(cipher="null", oblivious_memory_bytes=32, seed=9)
        db.sql("CREATE TABLE big (v INT) CAPACITY 32")
        values = [7, 3, 9, 1, 5, 8, 2, 6]
        for v in values:
            db.sql(f"INSERT INTO big VALUES ({v})")
        result = db.sql("SELECT v FROM big ORDER BY v")
        assert [row[0] for row in result.rows] == sorted(values)
        sort = result.plan.find(SortNode)
        assert sort is not None and not sort.in_enclave


class TestExplain:
    def test_explain_select_runs_no_operator(self, db: ObliDB) -> None:
        plan = db.explain("SELECT * FROM t WHERE v = 10")
        selects = [n for n in plan.root.walk() if isinstance(n, SelectNode)]
        assert len(selects) == 1
        assert selects[0].algorithm is not None
        assert selects[0].output_rows == 1

    def test_explain_matches_execution_plan(self, db: ObliDB) -> None:
        sql = "SELECT * FROM t WHERE v < 40"
        explained = db.explain(sql).find(SelectNode)
        executed = db.sql(sql).plan.find(SelectNode)
        assert explained is not None
        assert explained.algorithm is executed.algorithm

    def test_explain_matches_execution_cache_key(self, db: ObliDB) -> None:
        """The compiled plan is the leaked value: explaining and running
        the same query — a join included, now that nothing about its plan
        waits for the join output — must produce identical QueryPlans."""
        db.sql("CREATE TABLE u (k INT, w INT) CAPACITY 8")
        db.sql("INSERT INTO u VALUES (1, 5)")
        for sql in (
            "SELECT * FROM t WHERE v < 40",
            "SELECT v, w FROM t JOIN u ON t.k = u.k WHERE w > 1 ORDER BY v",
        ):
            explained = db.explain(sql)
            executed = db.sql(sql).plan
            assert executed is not None
            assert explained.cache_key == executed.cache_key

    def test_explain_index_point_query(self, db: ObliDB) -> None:
        plan = db.explain("SELECT * FROM t WHERE k = 3")
        assert plan.find(IndexLookupNode) is not None

    def test_explain_join(self, db: ObliDB) -> None:
        db.sql("CREATE TABLE u (k INT) CAPACITY 8")
        db.sql("INSERT INTO u VALUES (1)")
        join = db.explain("SELECT * FROM t JOIN u ON t.k = u.k").find(JoinNode)
        assert join is not None and join.algorithm is not None
        filtered = db.explain("SELECT * FROM t JOIN u ON t.k = u.k WHERE v > 3")
        assert filtered.find(SelectNode) is None

    def test_explain_writes(self, db: ObliDB) -> None:
        for sql, operator in [
            ("INSERT INTO t VALUES (99, 1, 'x')", "insert"),
            ("UPDATE t SET v = 0 WHERE k = 1", "update"),
            ("DELETE FROM t WHERE k = 1", "delete"),
        ]:
            plan = db.explain(sql)
            assert plan.statement_kind == operator
            assert isinstance(plan.root, WriteNode)
            assert plan.root.operation == operator

    def test_explain_does_not_modify(self, db: ObliDB) -> None:
        before = db.sql("SELECT COUNT(*) FROM t").scalar()
        db.explain("DELETE FROM t")
        assert db.sql("SELECT COUNT(*) FROM t").scalar() == before

    def test_explain_create_rejected(self, db: ObliDB) -> None:
        with pytest.raises(QueryError):
            db.explain("CREATE TABLE x (y INT)")


class TestExplainSQL:
    """``EXPLAIN <stmt>`` through the SQL surface (grammar + execution)."""

    def test_explain_statement_parses(self) -> None:
        from repro.engine import ExplainStatement

        statement = parse("EXPLAIN SELECT * FROM t WHERE v = 1")
        assert isinstance(statement, ExplainStatement)
        assert statement.target.table == "t"

    def test_explain_sql_returns_plan_rows(self, db: ObliDB) -> None:
        result = db.sql("EXPLAIN SELECT * FROM t WHERE v = 10")
        assert result.column_names == ["plan"]
        text = "\n".join(row[0] for row in result.rows)
        assert "select" in text and "scan" in text
        assert result.plan is not None
        assert result.plan.describe() == text

    def test_explain_sql_renders_the_fused_join(self, db: ObliDB) -> None:
        """The join line carries the WHERE (as a flag — constants stay on
        the statement) and the emitted columns; no select node sits above."""
        db.sql("CREATE TABLE sales (sid INT, k INT, region INT, amount INT) CAPACITY 16")
        result = db.sql(
            "EXPLAIN SELECT region, amount FROM t JOIN sales ON t.k = sales.k"
            " WHERE sales.amount < 70 AND t.v > 10"
        )
        lines = [row[0] for row in result.rows]
        assert lines[0] == "plan[select] tables=t,sales columns=region,amount"
        assert lines[1].startswith("`-- join algorithm=hash on=k=k t1=64 t2=16 ")
        assert lines[1].endswith(" filtered=True columns=(region, amount) in_enclave=True")
        assert [line.split()[1] for line in lines[2:]] == ["scan", "scan"]
        assert "70" not in "\n".join(lines)

    def test_explain_sql_does_not_execute(self, db: ObliDB) -> None:
        before = db.sql("SELECT COUNT(*) FROM t").scalar()
        db.sql("EXPLAIN DELETE FROM t")
        assert db.sql("SELECT COUNT(*) FROM t").scalar() == before

    def test_explain_sql_not_wal_logged(self) -> None:
        db = ObliDB(cipher="null", seed=3, wal=True)
        db.sql("CREATE TABLE w (x INT) CAPACITY 8")
        logged = db.wal.count
        db.sql("EXPLAIN INSERT INTO w VALUES (1)")
        assert db.wal.count == logged

    def test_nested_explain_rejected(self) -> None:
        from repro.enclave import SQLSyntaxError

        with pytest.raises(SQLSyntaxError):
            parse("EXPLAIN EXPLAIN SELECT * FROM t")

    def test_explain_create_rejected(self, db: ObliDB) -> None:
        with pytest.raises(QueryError):
            db.sql("EXPLAIN CREATE TABLE x (y INT)")
