"""Unit tests for the flat storage method."""

from __future__ import annotations

import pytest

from repro.enclave import CapacityError, Enclave, StorageError
from repro.operators import Comparison
from repro.storage import FlatStorage, Schema


def make(enclave: Enclave, schema: Schema, capacity: int = 16) -> FlatStorage:
    return FlatStorage(enclave, schema, capacity)


class TestBasics:
    def test_starts_empty(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        assert table.used_rows == 0
        assert table.rows() == []
        assert all(row is None for _, row in table.scan())

    def test_insert_and_rows(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        table.insert((1, "a"))
        table.insert((2, "b"))
        assert sorted(table.rows()) == [(1, "a"), (2, "b")]
        assert table.used_rows == 2

    def test_insert_fills_capacity(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema, capacity=4)
        for i in range(4):
            table.insert((i, "x"))
        with pytest.raises(CapacityError):
            table.insert((9, "x"))

    def test_fast_insert(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        table.fast_insert((1, "a"))
        table.fast_insert((2, "b"))
        assert table.read_row(0) == (1, "a")
        assert table.read_row(1) == (2, "b")

    def test_fast_insert_constant_cost(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        """The paper's constant-time insert: one write, no scan."""
        table = make(fast_enclave, kv_schema, capacity=64)
        before = fast_enclave.cost.block_ios
        table.fast_insert((1, "a"))
        assert fast_enclave.cost.block_ios - before == 1

    def test_oblivious_insert_scans_whole_table(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        table = make(fast_enclave, kv_schema, capacity=10)
        before = fast_enclave.cost.block_ios
        table.insert((1, "a"))
        assert fast_enclave.cost.block_ios - before == 20  # R+W per block

    def test_insert_many_is_one_pass(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        """Bulk insert pays one uniform pass total, not one per row."""
        table = make(fast_enclave, kv_schema, capacity=10)
        before = fast_enclave.cost.block_ios
        table.insert_many([(i, "x") for i in range(5)])
        assert fast_enclave.cost.block_ios - before == 20  # one R+W pass
        assert sorted(table.rows()) == [(i, "x") for i in range(5)]
        assert table.used_rows == 5

    def test_insert_many_respects_capacity_and_reuses_holes(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        table = make(fast_enclave, kv_schema, capacity=4)
        table.insert((0, "keep"))
        table.insert((1, "hole"))
        table.delete(lambda row: row[0] == 1)
        table.insert_many([(7, "a"), (8, "b"), (9, "c")])
        assert sorted(table.rows()) == [(0, "keep"), (7, "a"), (8, "b"), (9, "c")]
        with pytest.raises(CapacityError):
            table.insert_many([(10, "x")])

    def test_fast_insert_many_is_one_range_write(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        table = make(fast_enclave, kv_schema, capacity=16)
        table.fast_insert((0, "first"))
        before = fast_enclave.cost.block_ios
        table.fast_insert_many([(i, "x") for i in range(1, 6)])
        assert fast_enclave.cost.block_ios - before == 5  # W only, no reads
        assert table.read_row(0) == (0, "first")
        assert [table.read_row(i) for i in range(1, 6)] == [
            (i, "x") for i in range(1, 6)
        ]
        with pytest.raises(CapacityError):
            table.fast_insert_many([(9, "x")] * 11)

    def test_insert_reuses_deleted_slot(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema, capacity=3)
        for i in range(3):
            table.insert((i, "x"))
        table.delete(lambda row: row[0] == 1)
        table.insert((9, "y"))
        assert sorted(table.rows()) == [(0, "x"), (2, "x"), (9, "y")]


class TestUpdateDelete:
    def test_update_matching(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        for i in range(5):
            table.fast_insert((i, "old"))
        updated = table.update(
            lambda row: row[0] % 2 == 0, lambda row: (row[0], "new")
        )
        assert updated == 3
        assert sorted(r[1] for r in table.rows()) == ["new", "new", "new", "old", "old"]

    def test_delete_matching(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        for i in range(6):
            table.fast_insert((i, "x"))
        deleted = table.delete(lambda row: row[0] < 2)
        assert deleted == 2
        assert table.used_rows == 4

    def test_update_cost_independent_of_matches(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        """Zero matches and all matches must cost identically."""
        table = make(fast_enclave, kv_schema, capacity=8)
        for i in range(8):
            table.fast_insert((i, "x"))
        before = fast_enclave.cost.block_ios
        table.update(lambda row: False, lambda row: row)
        none_cost = fast_enclave.cost.block_ios - before
        before = fast_enclave.cost.block_ios
        table.update(lambda row: True, lambda row: (row[0], "y"))
        all_cost = fast_enclave.cost.block_ios - before
        assert none_cost == all_cost

    def test_predicate_decodes_only_matching_rows_whole(
        self, fast_enclave: Enclave, kv_schema: Schema, monkeypatch: pytest.MonkeyPatch
    ) -> None:
        """A predicate is tested on its own columns; ``assign`` gets the
        whole row, which is decoded for the matching row only.  The trace
        is the row-callable pass's."""
        tables = [make(fast_enclave, kv_schema, capacity=8) for _ in range(2)]
        for table in tables:
            table.fast_insert_many([(i, f"v{i}") for i in range(6)])
        decode_row = Schema.decode_row
        whole = []

        def counted(self: Schema, data: bytes, offset: int = 0):
            whole.append(data)
            return decode_row(self, data, offset)

        monkeypatch.setattr(Schema, "decode_row", counted)
        trace = fast_enclave.trace
        start = len(trace.events)
        assert tables[0].update(Comparison("key", "=", 3), lambda row: (row[0], row[1] + "!")) == 1
        by_predicate = trace.events[start:]
        assert len(whole) == 1
        assert tables[0].delete(Comparison("key", "<", 2)) == 2
        assert len(whole) == 1
        assert sorted(tables[0].rows()) == [(2, "v2"), (3, "v3!"), (4, "v4"), (5, "v5")]
        start = len(trace.events)
        tables[1].update(lambda row: row[0] == 3, lambda row: (row[0], row[1] + "!"))
        assert [(e.op, e.index) for e in trace.events[start:]] == [
            (e.op, e.index) for e in by_predicate
        ]


class TestBlockPrimitives:
    def test_write_and_read_row(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        table.write_row(3, (7, "seven"))
        assert table.read_row(3) == (7, "seven")
        table.write_row(3, None)
        assert table.read_row(3) is None

    def test_rewrite_row_returns_content(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        table.write_row(0, (1, "a"))
        assert table.rewrite_row(0) == (1, "a")
        assert table.read_row(0) == (1, "a")

    def test_rewrite_refreshes_ciphertext(self, kv_schema: Schema) -> None:
        enclave = Enclave(keep_trace_events=True)  # real cipher
        table = FlatStorage(enclave, kv_schema, 2)
        table.write_row(0, (1, "a"))
        before = enclave.untrusted.peek(table.region_name, 0)
        table.rewrite_row(0)
        after = enclave.untrusted.peek(table.region_name, 0)
        assert before is not None and after is not None
        assert before.ciphertext != after.ciphertext or before.nonce != after.nonce


class TestLifecycle:
    def test_copy_to_larger(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema, capacity=4)
        for i in range(4):
            table.fast_insert((i, "x"))
        bigger = table.copy_to(capacity=8)
        assert bigger.capacity == 8
        assert sorted(bigger.rows()) == sorted(table.rows())
        assert bigger.used_rows == 4

    def test_copy_to_smaller_rejected(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema, capacity=4)
        with pytest.raises(StorageError):
            table.copy_to(capacity=2)

    def test_free_releases_region(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make(fast_enclave, kv_schema)
        region = table.region_name
        table.free()
        assert not fast_enclave.untrusted.has_region(region)
        table.free()  # idempotent
