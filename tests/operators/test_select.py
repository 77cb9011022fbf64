"""Unit tests for the five oblivious SELECT algorithms."""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave
from repro.operators import (
    Comparison,
    compact_select,
    continuous_select,
    hash_select,
    large_select,
    materialize_index_range,
    naive_select,
    small_select,
)
from repro.storage import FlatStorage, Schema, index_tree


@pytest.fixture
def table(fast_enclave: Enclave, kv_schema: Schema) -> FlatStorage:
    """40 rows with keys 0..39 in key order (contiguous range matches)."""
    table = FlatStorage(fast_enclave, kv_schema, 48)
    for key in range(40):
        table.fast_insert((key, f"v{key}"))
    return table


LOW_PRED = Comparison("key", "<", 8)  # 8 contiguous matches
EXPECTED_LOW = [(k, f"v{k}") for k in range(8)]


class TestNaiveSelect:
    def test_correct(self, table: FlatStorage) -> None:
        out = naive_select(table, LOW_PRED, 8, rng=random.Random(1))
        assert sorted(out.rows()) == EXPECTED_LOW
        assert out.used_rows == 8

    def test_empty_output(self, table: FlatStorage) -> None:
        out = naive_select(table, Comparison("key", "=", -1), 0, rng=random.Random(1))
        assert out.rows() == []

    def test_one_oram_op_per_row(self, table: FlatStorage, fast_enclave: Enclave) -> None:
        before = fast_enclave.cost.oram_accesses
        out = naive_select(table, LOW_PRED, 8, rng=random.Random(1))
        delta = fast_enclave.cost.oram_accesses - before
        # One op per scanned row plus the final copy-out of |R| blocks.
        assert delta == table.capacity + 8
        out.free()


class TestSmallSelect:
    @pytest.mark.parametrize("buffer_rows", [1, 3, 8, 100])
    def test_correct_any_buffer(self, table: FlatStorage, buffer_rows: int) -> None:
        out = small_select(table, LOW_PRED, 8, buffer_rows)
        assert sorted(out.rows()) == EXPECTED_LOW

    def test_pass_count_matches_formula(self, table: FlatStorage, fast_enclave: Enclave) -> None:
        """ceil(|R|/S) passes, each reading the whole input table."""
        before = fast_enclave.cost.untrusted_reads
        out = small_select(table, LOW_PRED, 8, buffer_rows=3)
        reads = fast_enclave.cost.untrusted_reads - before
        passes = (8 + 2) // 3  # ceil(8/3) = 3
        assert reads == passes * table.capacity
        out.free()

    def test_scattered_matches(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = FlatStorage(fast_enclave, kv_schema, 32)
        for key in range(30):
            table.fast_insert((key, "x"))
        predicate = Comparison("key", "=", 7)
        out = small_select(table, predicate, 1, buffer_rows=4)
        assert out.rows() == [(7, "x")]

    def test_invalid_buffer_rejected(self, table: FlatStorage) -> None:
        with pytest.raises(ValueError):
            small_select(table, LOW_PRED, 8, buffer_rows=0)


class TestLargeSelect:
    def test_correct(self, table: FlatStorage) -> None:
        predicate = Comparison("key", ">=", 5)
        out = large_select(table, predicate)
        assert sorted(out.rows()) == [(k, f"v{k}") for k in range(5, 40)]

    def test_output_capacity_equals_input(self, table: FlatStorage) -> None:
        out = large_select(table, LOW_PRED)
        assert out.capacity == table.capacity

    def test_uses_no_oblivious_memory(self, table: FlatStorage, fast_enclave: Enclave) -> None:
        before = fast_enclave.oblivious.peak_bytes
        large_select(table, LOW_PRED)
        assert fast_enclave.oblivious.peak_bytes == before


class TestContinuousSelect:
    def test_correct_prefix(self, table: FlatStorage) -> None:
        out = continuous_select(table, LOW_PRED, 8)
        assert sorted(out.rows()) == EXPECTED_LOW

    def test_correct_middle_segment(self, table: FlatStorage) -> None:
        predicate = Comparison("key", ">=", 10)
        from repro.operators import And

        segment = And(predicate, Comparison("key", "<", 25))
        out = continuous_select(table, segment, 15)
        assert sorted(out.rows()) == [(k, f"v{k}") for k in range(10, 25)]

    def test_single_pass(self, table: FlatStorage, fast_enclave: Enclave) -> None:
        before = fast_enclave.cost.untrusted_reads
        out = continuous_select(table, LOW_PRED, 8)
        # One read of each input block plus one read of each touched output
        # slot (the read-before-write dummy pattern).
        reads = fast_enclave.cost.untrusted_reads - before
        assert reads == 2 * table.capacity
        out.free()

    def test_zero_output(self, table: FlatStorage) -> None:
        out = continuous_select(table, Comparison("key", "=", -5), 0)
        assert out.rows() == []


class TestHashSelect:
    def test_correct(self, table: FlatStorage) -> None:
        out = hash_select(table, LOW_PRED, 8)
        assert sorted(out.rows()) == EXPECTED_LOW

    def test_scattered_matches(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = FlatStorage(fast_enclave, kv_schema, 64)
        for key in range(60):
            table.fast_insert((key, "x"))
        predicate = Comparison("key", "=", 31)
        out = hash_select(table, predicate, 1)
        assert out.rows() == [(31, "x")]

    def test_output_structure_size(self, table: FlatStorage) -> None:
        out = hash_select(table, LOW_PRED, 8)
        assert out.capacity == 8 * 5  # |R| buckets x 5 chain slots

    def test_fixed_accesses_per_row(self, table: FlatStorage, fast_enclave: Enclave) -> None:
        """10 output-slot touches per input row, selected or not."""
        before = fast_enclave.cost.untrusted_reads
        out = hash_select(table, LOW_PRED, 8)
        reads = fast_enclave.cost.untrusted_reads - before
        assert reads == table.capacity * (1 + 10)
        out.free()

    def test_dense_output(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        """Every row selected: placement must still succeed."""
        table = FlatStorage(fast_enclave, kv_schema, 32)
        for key in range(32):
            table.fast_insert((key, "x"))
        out = hash_select(table, Comparison("key", ">=", 0), 32)
        assert len(out.rows()) == 32


class TestCompactSelect:
    def test_correct_and_order_preserving(self, table: FlatStorage) -> None:
        out = compact_select(table, LOW_PRED, 8)
        assert out.capacity == 8
        assert out.rows() == EXPECTED_LOW  # input order, like Small's

    def test_scattered_matches(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        t = FlatStorage(fast_enclave, kv_schema, 32)
        for key in range(30):
            t.fast_insert((key, "x"))
        out = compact_select(t, Comparison("key", "=", 7), 1)
        assert out.rows() == [(7, "x")]

    def test_underestimate_keeps_first_matches(self, table: FlatStorage) -> None:
        """Planner promised 4 but 8 match: the first 4 in input order win,
        exactly like the buffered Small path."""
        out = compact_select(table, LOW_PRED, 4)
        assert out.rows() == EXPECTED_LOW[:4]

    def test_zero_output(self, table: FlatStorage) -> None:
        out = compact_select(table, Comparison("key", "=", -1), 0)
        assert out.rows() == []

    def test_trace_is_data_independent(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        traces = []
        for matches in ({0, 1, 2}, {17, 25, 31}):
            enclave = Enclave(cipher="null", keep_trace_events=True)
            t = FlatStorage(enclave, kv_schema, 32)
            for i in range(32):
                t.fast_insert((1 if i in matches else 1000 + i, "x"))
            enclave.trace.clear()
            compact_select(t, Comparison("key", "=", 1), 3)
            traces.append(enclave.trace)
        assert traces[0].matches(traces[1])

    def test_small_select_switches_in_multi_pass_regime(
        self, table: FlatStorage, fast_enclave: Enclave
    ) -> None:
        """With a 1-row buffer and 35 promised rows (35 passes > the
        compaction threshold), small_select routes to the compaction front
        — far fewer reads than 35 full scans — and stays correct."""
        predicate = Comparison("key", "<", 35)
        before = fast_enclave.cost.untrusted_reads
        out = small_select(table, predicate, 35, buffer_rows=1)
        reads = fast_enclave.cost.untrusted_reads - before
        assert out.rows() == [(k, f"v{k}") for k in range(35)]
        assert reads < 35 * table.capacity  # the multi-pass cost it avoided


class TestHashSelectCompactOutput:
    def test_tight_capacity_and_rows(self, table: FlatStorage) -> None:
        out = hash_select(table, LOW_PRED, 8, compact_output=True)
        assert out.capacity == 8  # |R|, not 5*|R|
        assert sorted(out.rows()) == EXPECTED_LOW
        assert out.used_rows == 8

    def test_fewer_matches_than_promised(self, table: FlatStorage) -> None:
        out = hash_select(table, Comparison("key", "<", 3), 8, compact_output=True)
        assert out.capacity == 8
        assert sorted(out.rows()) == [(k, f"v{k}") for k in range(3)]

    def test_zero_output(self, table: FlatStorage) -> None:
        out = hash_select(table, Comparison("key", "=", -1), 0, compact_output=True)
        assert out.rows() == []

    def test_trace_is_data_independent(self, kv_schema: Schema) -> None:
        traces = []
        for matches in ({1, 8, 15, 22}, {0, 3, 17, 23}):
            enclave = Enclave(cipher="null", keep_trace_events=True)
            t = FlatStorage(enclave, kv_schema, 24)
            for i in range(24):
                t.fast_insert((1 if i in matches else 1000 + i, "x"))
            enclave.trace.clear()
            hash_select(t, Comparison("key", "=", 1), 4, compact_output=True)
            traces.append(enclave.trace)
        assert traces[0].matches(traces[1])


class TestSelectionOverIndex:
    def test_materialize_range(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        index = index_tree(
            fast_enclave, kv_schema, "key", 128, rng=random.Random(2)
        )
        for key in range(50):
            index.insert((key, f"v{key}"))
        segment = materialize_index_range(index, 10, 19)
        assert segment.capacity == 10
        assert sorted(segment.rows()) == [(k, f"v{k}") for k in range(10, 20)]

    def test_empty_range(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        index = index_tree(
            fast_enclave, kv_schema, "key", 64, rng=random.Random(2)
        )
        index.insert((1, "x"))
        segment = materialize_index_range(index, 100, 200)
        assert segment.rows() == []
