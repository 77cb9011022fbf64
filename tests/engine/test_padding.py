"""Tests for padding mode (Section 7.1)."""

from __future__ import annotations

import pytest

from repro import ObliDB, PaddingConfig
from repro.enclave import QueryError, StorageError
from repro.planner import (
    GroupByNode,
    IndexLookupNode,
    JoinNode,
    SelectAlgorithm,
    SelectNode,
)


@pytest.fixture
def padded_db() -> ObliDB:
    db = ObliDB(
        cipher="null",
        padding=PaddingConfig(pad_rows=30, pad_groups=16),
        seed=5,
    )
    db.sql("CREATE TABLE t (id INT, g INT) CAPACITY 64")
    for i in range(20):
        db.sql(f"INSERT INTO t VALUES ({i}, {i % 3})")
    return db


class TestPaddingConfig:
    def test_bounds_validated(self) -> None:
        with pytest.raises(QueryError):
            PaddingConfig(pad_rows=0, pad_groups=1)
        with pytest.raises(QueryError):
            PaddingConfig(pad_rows=1, pad_groups=0)

    def test_check_fits(self) -> None:
        config = PaddingConfig(pad_rows=10, pad_groups=5)
        config.check_fits(10)
        with pytest.raises(QueryError):
            config.check_fits(11)


class TestPaddedExecution:
    def test_select_results_correct(self, padded_db: ObliDB) -> None:
        result = padded_db.sql("SELECT * FROM t WHERE id < 5")
        assert sorted(row[0] for row in result.rows) == [0, 1, 2, 3, 4]

    def test_select_always_hash_algorithm(self, padded_db: ObliDB) -> None:
        result = padded_db.sql("SELECT * FROM t WHERE id < 5")
        selects = [n for n in result.plan.root.walk() if isinstance(n, SelectNode)]
        assert selects and all(
            n.algorithm is SelectAlgorithm.HASH and n.padded for n in selects
        )

    def test_output_size_is_padded_constant(self, padded_db: ObliDB) -> None:
        """Different selectivities leak the same padded output size."""
        small = padded_db.sql("SELECT * FROM t WHERE id < 2")
        large = padded_db.sql("SELECT * FROM t WHERE id < 15")
        assert small.plan.find(SelectNode).output_rows == 30
        assert large.plan.find(SelectNode).output_rows == 30

    def test_group_output_padded(self, padded_db: ObliDB) -> None:
        result = padded_db.sql("SELECT g, COUNT(*) FROM t GROUP BY g")
        assert sorted(result.rows) == [(0, 7.0), (1, 7.0), (2, 6.0)]
        assert result.plan.find(GroupByNode).output_rows == 16

    def test_overflow_rejected(self) -> None:
        db = ObliDB(
            cipher="null", padding=PaddingConfig(pad_rows=3, pad_groups=4), seed=1
        )
        db.sql("CREATE TABLE t (id INT) CAPACITY 16")
        for i in range(10):
            db.sql(f"INSERT INTO t VALUES ({i})")
        with pytest.raises(Exception):
            db.sql("SELECT * FROM t WHERE id < 9")

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

    def test_padding_ignores_index(self) -> None:
        """Indexes reveal selectivity; padding mode must not use them."""
        db = ObliDB(
            cipher="null",
            padding=PaddingConfig(pad_rows=20, pad_groups=8),
            seed=2,
        )
        db.sql("CREATE TABLE t (id INT) CAPACITY 32 METHOD both KEY id")
        for i in range(10):
            db.sql(f"INSERT INTO t VALUES ({i})")
        result = db.sql("SELECT * FROM t WHERE id = 4")
        assert result.rows == [(4,)]
        assert result.plan.find(IndexLookupNode) is None

    def test_padded_slowdown_is_bounded(self, padded_db: ObliDB) -> None:
        """Padding costs more than the planned path but not absurdly more
        (the paper reports 2.4x for selects at ~2x table padding)."""
        plain_db = ObliDB(cipher="null", seed=5)
        plain_db.sql("CREATE TABLE t (id INT, g INT) CAPACITY 64")
        for i in range(20):
            plain_db.sql(f"INSERT INTO t VALUES ({i}, {i % 3})")
        padded_cost = padded_db.sql("SELECT * FROM t WHERE id < 5").cost
        plain_cost = plain_db.sql("SELECT * FROM t WHERE id < 5").cost
        assert padded_cost["untrusted_reads"] >= plain_cost["untrusted_reads"]


class TestPadGroupsOnEveryPath:
    """A padded GROUP BY holds at most ``pad_groups`` groups whichever path
    runs it: into its output table, over a join held in the enclave, or
    through the sorted fallback when the group table does not fit."""

    GROUP_BY = "SELECT g, COUNT(*) FROM a GROUP BY g"
    JOINED = "SELECT g, COUNT(*) FROM a JOIN b ON k = bk GROUP BY g"

    @staticmethod
    def build(pad_groups: int = 2, free_bytes: int | None = None) -> ObliDB:
        db = ObliDB(
            cipher="null", padding=PaddingConfig(pad_rows=50, pad_groups=pad_groups), seed=3
        )
        db.sql("CREATE TABLE a (k INT, g INT) CAPACITY 16")
        db.sql("CREATE TABLE b (bk INT, x INT) CAPACITY 16")
        for i in range(8):
            db.sql(f"INSERT INTO a VALUES ({i}, {i})")
            db.sql(f"INSERT INTO b VALUES ({i}, {i})")
        if free_bytes is not None:
            account = db.enclave.oblivious
            account.allocate(account.free_bytes - free_bytes)
        return db

    @pytest.mark.parametrize(
        "sql, free_bytes",
        [(GROUP_BY, None), (JOINED, None), (GROUP_BY, 64)],
        ids=["output-table", "held-join", "overflow"],
    )
    def test_more_groups_than_padded_are_refused(self, sql, free_bytes) -> None:
        db = self.build(free_bytes=free_bytes)
        in_use = db.enclave.oblivious.in_use_bytes
        regions = set(db.enclave.untrusted.region_names())
        with pytest.raises(StorageError, match="GROUP BY found 8 groups"):
            db.sql(sql)
        assert db.enclave.oblivious.in_use_bytes == in_use
        assert set(db.enclave.untrusted.region_names()) == regions

    def test_the_paths_are_the_ones_named(self) -> None:
        """The held-join case holds its join; the overflow case runs the
        sorted fallback (its output is sized by the input, not pad_groups)."""
        joined = self.build(pad_groups=8).sql(self.JOINED)
        assert joined.plan.find(JoinNode).in_enclave
        assert joined.plan.root.output_rows == 8
        overflow = self.build(pad_groups=8, free_bytes=64).sql(self.GROUP_BY)
        assert overflow.plan.root.output_rows > overflow.plan.root.input_rows
        assert len(joined.rows) == len(overflow.rows) == 8

    @pytest.mark.parametrize("sql", [GROUP_BY, JOINED], ids=["flat", "held-join"])
    def test_groups_within_the_pad_answer(self, sql) -> None:
        where = " WHERE k < 2 GROUP BY"
        result = self.build().sql(sql.replace(" GROUP BY", where))
        assert sorted(result.rows) == [(0, 1.0), (1, 1.0)]
        assert result.plan.root.output_rows == 2
