"""End-to-end obliviousness: full SQL queries through the engine.

The operator-level suite checks each algorithm in isolation; these tests
check the composed engine — planner scan, operator execution, intermediate
allocation — through `ObliDB.sql`, asserting that queries with identical
declared leakage produce indistinguishable traces *end to end* (the paper's
"the whole engine runs obliviously so long as each of the operators is
individually oblivious", Section 4).
"""

from __future__ import annotations

import functools
import random

import pytest

from repro import ObliDB
from repro.analysis import (
    assert_indistinguishable,
    assert_same_leakage,
    canonicalize,
    oram_regions_of,
    real_query_trace,
)
from repro.planner import JoinAlgorithm, JoinNode, SelectNode, plan_join
from repro.planner import compile as plan_compiler
from repro.storage import Schema, StorageMethod, int_column, str_column

SCHEMA_SQL = (
    "CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 48 METHOD both KEY k"
)


def build_db(seed: int) -> ObliDB:
    """A database whose payload values differ per seed; keys 0..29."""
    db = ObliDB(
        cipher="null", keep_trace_events=True, allow_continuous=False, seed=1
    )
    db.sql(SCHEMA_SQL)
    rng = random.Random(seed)
    for key in range(30):
        db.sql(f"INSERT INTO t VALUES ({key}, {rng.randrange(1000)}, 's{key}')")
    return db


def trace_of(db: ObliDB, sql: str):
    db.enclave.trace.clear()
    result = db.sql(sql)
    return (
        canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave)),
        result,
    )


class TestPointQueries:
    def test_different_keys_same_trace(self) -> None:
        """Point lookups for different keys are indistinguishable — the
        engine hides *which* key was requested (Section 2.3)."""
        traces = []
        for key in (3, 17, 28):
            db = build_db(seed=5)
            trace, result = trace_of(db, f"SELECT * FROM t WHERE k = {key}")
            assert len(result.rows) == 1
            traces.append(trace)
        assert_indistinguishable(traces)

    def test_different_data_same_trace(self) -> None:
        traces = []
        for seed in (1, 2, 3):
            db = build_db(seed=seed)
            trace, _ = trace_of(db, "SELECT * FROM t WHERE k = 9")
            traces.append(trace)
        assert_indistinguishable(traces)

    def test_repeated_key_indistinguishable_from_fresh(self) -> None:
        """Asking the same key twice looks like asking two different keys:
        no hot-key side channel."""
        db_repeat = build_db(seed=4)
        trace_of(db_repeat, "SELECT * FROM t WHERE k = 5")
        repeat, _ = trace_of(db_repeat, "SELECT * FROM t WHERE k = 5")

        db_fresh = build_db(seed=4)
        trace_of(db_fresh, "SELECT * FROM t WHERE k = 11")
        fresh, _ = trace_of(db_fresh, "SELECT * FROM t WHERE k = 23")
        assert_indistinguishable([repeat, fresh])


class TestRangeAndAggregates:
    def test_equal_width_ranges_same_trace(self) -> None:
        traces = []
        for low in (2, 11, 20):
            db = build_db(seed=6)
            sql = f"SELECT * FROM t WHERE k >= {low} AND k <= {low + 4}"
            trace, result = trace_of(db, sql)
            assert len(result.rows) == 5
            traces.append(trace)
        assert_indistinguishable(traces)

    def test_aggregate_hides_predicate_parameters(self) -> None:
        """Fused aggregates leak nothing about selectivity: thresholds that
        match 0% and 100% of rows give identical traces."""
        traces = []
        for threshold in (-1, 10_000):
            db = build_db(seed=7)
            trace, _ = trace_of(
                db, f"SELECT COUNT(*), SUM(v) FROM t WHERE v < {threshold}"
            )
            traces.append(trace)
        assert_indistinguishable(traces)

    def test_group_by_same_group_count_same_trace(self) -> None:
        traces = []
        for seed in (8, 9):
            db = ObliDB(cipher="null", keep_trace_events=True, seed=1)
            db.sql("CREATE TABLE g (c INT, x INT) CAPACITY 16")
            rng = random.Random(seed)
            groups = rng.sample(range(100), 4)
            for i in range(12):
                db.sql(f"INSERT INTO g VALUES ({groups[i % 4]}, {rng.randrange(50)})")
            trace, _ = trace_of(db, "SELECT c, SUM(x) FROM g GROUP BY c")
            traces.append(trace)
        assert_indistinguishable(traces)


class TestWrites:
    def test_update_parameters_hidden(self) -> None:
        """Updates touching different rows (same match count) and writing
        different values are indistinguishable."""
        traces = []
        for key, value in ((4, 111), (21, 999)):
            db = build_db(seed=10)
            trace, result = trace_of(
                db, f"UPDATE t SET v = {value} WHERE k = {key}"
            )
            assert result.affected == 1
            traces.append(trace)
        assert_indistinguishable(traces)

    def test_delete_parameters_hidden(self) -> None:
        traces = []
        for key in (2, 27):
            db = build_db(seed=11)
            trace, result = trace_of(db, f"DELETE FROM t WHERE k = {key}")
            assert result.affected == 1
            traces.append(trace)
        assert_indistinguishable(traces)

    def test_insert_values_hidden(self) -> None:
        traces = []
        for value in (0, 987654):
            db = build_db(seed=12)
            trace, _ = trace_of(db, f"INSERT INTO t VALUES (40, {value}, 'zz')")
            traces.append(trace)
        assert_indistinguishable(traces)


class TestPlanLeakageContract:
    """The IR-level statement of obliviousness: equal compiled QueryPlans
    (equal ``cache_key``) must imply bit-identical canonical traces."""

    def test_equal_plans_imply_equal_traces(self) -> None:
        queries = [
            "SELECT * FROM t WHERE k = 3",
            "SELECT * FROM t WHERE k = 17",
            "SELECT * FROM t WHERE k = 28",
        ]
        traces, plans = [], []
        for sql in queries:
            db = build_db(seed=13)
            trace, plan = real_query_trace(db, sql)
            traces.append(trace)
            plans.append(plan)
        assert_same_leakage(plans)
        assert_indistinguishable(traces)

    def test_leakage_helper_detects_different_plans(self) -> None:
        db = build_db(seed=14)
        _, narrow = real_query_trace(db, "SELECT * FROM t WHERE k = 3")
        _, wide = real_query_trace(
            db, "SELECT * FROM t WHERE k >= 3 AND k <= 9"
        )
        try:
            assert_same_leakage([narrow, wide])
        except AssertionError:
            pass
        else:
            raise AssertionError("different plans must not compare equal")

    def test_write_plans_equal_and_traces_equal(self) -> None:
        traces, plans = [], []
        for value in (1, 99999):
            db = build_db(seed=15)
            trace, plan = real_query_trace(
                db, f"UPDATE t SET v = {value} WHERE k = 8"
            )
            traces.append(trace)
            plans.append(plan)
        assert_same_leakage(plans)
        assert_indistinguishable(traces)


class TestPaddingModeEndToEnd:
    def test_selectivities_indistinguishable_under_padding(self) -> None:
        """Padding mode's whole point: a query matching 1 row and a query
        matching 20 rows leave identical traces."""
        from repro import PaddingConfig

        traces = []
        for threshold in (1, 20):
            db = ObliDB(
                cipher="null",
                keep_trace_events=True,
                padding=PaddingConfig(pad_rows=25, pad_groups=8),
                seed=1,
            )
            db.sql("CREATE TABLE p (k INT) CAPACITY 32")
            for key in range(24):
                db.sql(f"INSERT INTO p VALUES ({key})")
            trace, result = trace_of(db, f"SELECT * FROM p WHERE k < {threshold}")
            assert len(result.rows) == threshold
            traces.append(trace)
        assert_indistinguishable(traces)


class TestHeldIndexSegmentLeakage:
    """An index segment that fits oblivious memory is answered where the
    lookup left it, so what the residual WHERE keeps — a point key's
    presence included — leaves both the plan and the trace.  The segment
    size, which the ORAM's padding already fixes, is what remains.  On the
    paper's index the segment still spills, and the selection over the
    scratch still leaks |R| and its algorithm."""

    @staticmethod
    def observe(sql: str, oram_kind: str = "path"):
        db = ObliDB(
            cipher="null", keep_trace_events=True, allow_continuous=False, seed=1
        )
        db.create_table(
            "t",
            Schema([int_column("k"), int_column("v"), str_column("s", 8)]),
            48,
            method=StorageMethod.BOTH,
            key_column="k",
            oram_kind=oram_kind,
        )
        rng = random.Random(5)
        for key in range(30):
            db.sql(f"INSERT INTO t VALUES ({key}, {rng.randrange(1000)}, 's{key}')")
        trace, plan = real_query_trace(db, sql)
        return trace, plan.cache_key

    def test_hit_and_miss_share_plan_and_trace(self) -> None:
        hit, miss = "SELECT * FROM t WHERE k = 5", "SELECT * FROM t WHERE k = 40"
        assert self.observe(hit) == self.observe(miss)
        assert self.observe(hit, "paper") != self.observe(miss, "paper")

    @pytest.mark.parametrize("tail", ["", " ORDER BY v DESC LIMIT 3"])
    def test_residual_selectivity_is_invisible(self, tail: str) -> None:
        """Ten-key ranges whose residual conjunct keeps none, some or all
        of the segment."""
        seen = {
            self.observe(f"SELECT * FROM t WHERE k >= 10 AND k <= 19 AND v < {bound}{tail}")
            for bound in (-1, 500, 10_000)
        }
        assert len(seen) == 1
        aggregates = {
            self.observe(
                "SELECT COUNT(*), SUM(v) FROM t WHERE k >= 10 AND k <= 19"
                f" AND v < {bound}"
            )
            for bound in (-1, 500, 10_000)
        }
        assert len(aggregates) == 1


class TestFusedJoinLeakage:
    """A join applies the statement's WHERE and column list where it emits
    a row, so its trace is a function of (|T1|, |T2|, oblivious memory,
    emitted row width) and of nothing the WHERE keeps.  Before the fusion a
    selection ran over the join output and leaked its result size and a
    SMALL/LARGE/HASH choice, so none of this held."""

    JOIN_SQL = (
        "SELECT region, amount FROM a JOIN b ON a.id = b.aid WHERE day < 100"
    )

    @staticmethod
    def build(days: list[int]) -> ObliDB:
        """Equal public shape; ``days`` decides what ``day < 100`` keeps."""
        db = ObliDB(cipher="null", keep_trace_events=True, seed=3)
        db.sql("CREATE TABLE a (id INT, region INT) CAPACITY 8")
        db.sql("CREATE TABLE b (bid INT, aid INT, day INT, amount INT) CAPACITY 16")
        for i in range(8):
            db.sql(f"INSERT INTO a VALUES ({i}, {i % 3})")
        for j, day in enumerate(days):
            db.sql(f"INSERT INTO b VALUES ({j}, {j % 8}, {day}, {10 * j})")
        return db

    @staticmethod
    def observe(db: ObliDB, sql: str):
        db.enclave.trace.clear()
        result = db.sql(sql)
        return result, (db.enclave.trace.digest(), result.cost, result.plan.cache_key)

    @pytest.mark.parametrize("algorithm", list(JoinAlgorithm))
    @pytest.mark.parametrize("tail", ["", " ORDER BY amount DESC LIMIT 3"])
    def test_where_selectivity_is_invisible(
        self, algorithm: JoinAlgorithm, tail: str, monkeypatch
    ) -> None:
        monkeypatch.setattr(
            plan_compiler, "plan_join", functools.partial(plan_join, force=algorithm)
        )
        selectivities = {
            0: [100 + j for j in range(16)],
            8: [j if j % 2 else 100 + j for j in range(16)],
            16: list(range(16)),
        }
        seen = []
        for expected_rows, days in selectivities.items():
            result, observed = self.observe(self.build(days), self.JOIN_SQL + tail)
            join = result.plan.find(JoinNode)
            assert join.algorithm is algorithm and join.filtered
            assert result.plan.find(SelectNode) is None
            assert len(result.rows) == (min(3, expected_rows) if tail else expected_rows)
            seen.append(observed)
        assert seen[0] == seen[1] == seen[2]

    @pytest.mark.parametrize("algorithm", list(JoinAlgorithm))
    def test_select_list_of_equal_width_is_invisible(
        self, algorithm: JoinAlgorithm, monkeypatch
    ) -> None:
        monkeypatch.setattr(
            plan_compiler, "plan_join", functools.partial(plan_join, force=algorithm)
        )
        days = [j if j % 2 else 100 + j for j in range(16)]
        digests = []
        for columns in ("region, amount", "id, bid"):  # two INTs either way
            sql = self.JOIN_SQL.replace("region, amount", columns)
            _, (digest, cost, _) = self.observe(self.build(days), sql)
            digests.append((digest, cost))
        assert digests[0] == digests[1]
