"""Unit tests for the selection planner (Section 5 / Figure 13 behaviour)."""

from __future__ import annotations

import pytest

from repro import ObliDB
from repro.enclave import Enclave, PlannerError
from repro.engine import run_select_algorithm
from repro.operators import Comparison, Or
from repro.planner import SelectAlgorithm, SelectDecision, SelectNode, plan_select
from repro.storage import FlatStorage, Schema
from repro.workloads import shuffled, wide_rows


def load(enclave: Enclave, schema: Schema, rows: list) -> FlatStorage:
    table = FlatStorage(enclave, schema, len(rows))
    for row in rows:
        table.fast_insert(row)
    return table


def run_decision(table: FlatStorage, predicate, decision: SelectDecision) -> FlatStorage:
    return run_select_algorithm(
        table,
        predicate,
        decision.algorithm,
        decision.stats.matching_rows,
        buffer_rows=decision.buffer_rows,
        compact_output=decision.compact_output,
    )


@pytest.fixture
def ordered_table(fast_enclave: Enclave, wide_schema: Schema) -> FlatStorage:
    return load(fast_enclave, wide_schema, wide_rows(200))


@pytest.fixture
def shuffled_table(fast_enclave: Enclave, wide_schema: Schema) -> FlatStorage:
    return load(fast_enclave, wide_schema, shuffled(wide_rows(200)))


class TestAlgorithmChoice:
    def test_large_for_high_selectivity(self, wide_schema: Schema) -> None:
        """With modest oblivious memory (Small needs many passes), a
        95%-selectivity query should copy-and-clear (Large)."""
        enclave = Enclave(oblivious_memory_bytes=2048, cipher="null")
        table = load(enclave, wide_schema, shuffled(wide_rows(200)))
        decision = plan_select(table, Comparison("id", ">=", 10))
        assert decision.algorithm is SelectAlgorithm.LARGE

    def test_small_wins_high_selectivity_with_big_buffer(
        self, ordered_table: FlatStorage
    ) -> None:
        """With oblivious memory to hold the whole output, one Small pass
        (N + R accesses) undercuts Large's two full passes."""
        decision = plan_select(ordered_table, Comparison("id", ">=", 10))
        assert decision.algorithm is SelectAlgorithm.SMALL

    def test_continuous_for_contiguous_segment(self, wide_schema: Schema) -> None:
        """When the buffer is tiny, the one-pass Continuous algorithm beats
        multi-pass Small on a contiguous result."""
        enclave = Enclave(oblivious_memory_bytes=150, cipher="null")
        table = load(enclave, wide_schema, wide_rows(200))
        decision = plan_select(table, Comparison("id", "<", 10))
        assert decision.algorithm is SelectAlgorithm.CONTINUOUS

    def test_continuous_disabled_falls_back(self, ordered_table: FlatStorage) -> None:
        decision = plan_select(
            ordered_table, Comparison("id", "<", 10), allow_continuous=False
        )
        assert decision.algorithm in (SelectAlgorithm.SMALL, SelectAlgorithm.HASH)

    def test_small_for_scattered_low_selectivity(self, shuffled_table: FlatStorage) -> None:
        decision = plan_select(shuffled_table, Comparison("id", "<", 10))
        assert decision.algorithm is SelectAlgorithm.SMALL

    def test_hash_when_buffer_too_small(self, wide_schema: Schema) -> None:
        """With almost no oblivious memory, Small would need too many
        passes; Hash wins."""
        tiny = Enclave(oblivious_memory_bytes=64, cipher="null")
        table = load(tiny, wide_schema, shuffled(wide_rows(200)))
        decision = plan_select(table, Comparison("id", "<", 50))
        assert decision.algorithm is SelectAlgorithm.HASH

    def test_empty_result_uses_hash(self, ordered_table: FlatStorage) -> None:
        decision = plan_select(ordered_table, Comparison("id", "=", -1))
        assert decision.algorithm is SelectAlgorithm.HASH

    def test_force_overrides(self, ordered_table: FlatStorage) -> None:
        decision = plan_select(
            ordered_table,
            Comparison("id", "<", 10),
            force=SelectAlgorithm.NAIVE,
        )
        assert decision.algorithm is SelectAlgorithm.NAIVE

    def test_plan_records_leaked_sizes(self, ordered_table: FlatStorage) -> None:
        decision = plan_select(ordered_table, Comparison("id", "<", 10))
        assert decision.stats.input_capacity == 200
        assert decision.stats.matching_rows == 10


class TestNoSmallBuffer:
    """Below one framed row of free oblivious memory Small has no buffer:
    it is never chosen, and forcing it is refused before any block moves."""

    @pytest.mark.parametrize("budget", [64, 16])
    def test_engine_select_plans_around_missing_buffer(self, budget: int) -> None:
        db = ObliDB(
            oblivious_memory_bytes=budget,
            allow_continuous=False,
            cipher="null",
            seed=1,
        )
        db.sql("CREATE TABLE t (k INT, name STR(60)) CAPACITY 64")
        for key in range(40):
            db.sql(f"INSERT INTO t VALUES ({key}, 'n{key}')")
        result = db.sql("SELECT * FROM t WHERE k < 3")
        assert sorted(result.rows) == [(key, f"n{key}") for key in range(3)]
        select = result.plan.find(SelectNode)
        assert select.algorithm is not SelectAlgorithm.SMALL
        assert select.buffer_rows == 0

    def test_no_buffer_rows_below_one_framed_row(self, wide_schema: Schema) -> None:
        tiny = Enclave(oblivious_memory_bytes=16, cipher="null")
        table = load(tiny, wide_schema, shuffled(wide_rows(50)))
        decision = plan_select(table, Comparison("id", "<", 3), keep=True)
        assert decision.buffer_rows == 0
        assert decision.algorithm is not SelectAlgorithm.SMALL
        assert not decision.in_enclave and not decision.resumed

    def test_forced_small_without_buffer_rejected_before_scan(
        self, wide_schema: Schema
    ) -> None:
        tiny = Enclave(oblivious_memory_bytes=16, cipher="null")
        table = load(tiny, wide_schema, shuffled(wide_rows(50)))
        before = tiny.cost.block_ios
        with pytest.raises(PlannerError, match="Small"):
            plan_select(table, Comparison("id", "<", 3), force=SelectAlgorithm.SMALL)
        assert tiny.cost.block_ios == before


class TestExecuteSelect:
    @pytest.mark.parametrize(
        "force",
        [
            SelectAlgorithm.SMALL,
            SelectAlgorithm.LARGE,
            SelectAlgorithm.HASH,
            SelectAlgorithm.NAIVE,
            SelectAlgorithm.CONTINUOUS,
        ],
    )
    def test_all_algorithms_agree(
        self, ordered_table: FlatStorage, force: SelectAlgorithm
    ) -> None:
        predicate = Comparison("id", "<", 12)
        decision = plan_select(ordered_table, predicate, force=force)
        output = run_decision(ordered_table, predicate, decision)
        assert sorted(row[0] for row in output.rows()) == list(range(12))
        output.free()

    def test_forced_continuous_on_scattered_rejected(
        self, shuffled_table: FlatStorage
    ) -> None:
        predicate = Or(Comparison("id", "=", 0), Comparison("id", "=", 150))
        with pytest.raises(PlannerError):
            plan_select(shuffled_table, predicate, force=SelectAlgorithm.CONTINUOUS)

    def test_planner_beats_hash_on_planned_queries(
        self, ordered_table: FlatStorage, fast_enclave: Enclave
    ) -> None:
        """The Figure 13 claim: the planner's pick outperforms the general
        Hash algorithm."""
        predicate = Comparison("id", ">=", 10)  # 95% selectivity
        decision = plan_select(ordered_table, predicate)
        before = fast_enclave.cost.block_ios
        run_decision(ordered_table, predicate, decision)
        planned_cost = fast_enclave.cost.block_ios - before

        forced = plan_select(ordered_table, predicate, force=SelectAlgorithm.HASH)
        before = fast_enclave.cost.block_ios
        run_decision(ordered_table, predicate, forced)
        hash_cost = fast_enclave.cost.block_ios - before
        assert planned_cost * 2 < hash_cost
