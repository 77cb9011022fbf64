"""Unit tests for the oblivious write operators and projection."""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave
from repro.operators import (
    And,
    Comparison,
    oblivious_delete,
    oblivious_insert,
    oblivious_update,
    project,
)
from repro.storage import FlatStorage, Schema, StorageMethod, Table


def make_table(enclave: Enclave, schema: Schema, method: StorageMethod) -> Table:
    key = None if method is StorageMethod.FLAT else "key"
    table = Table(
        enclave, f"w_{method.value}", schema, 64, method=method, key_column=key,
        rng=random.Random(6),
    )
    for key_value in range(12):
        oblivious_insert(table, (key_value, f"v{key_value}"))
    return table


@pytest.mark.parametrize(
    "method", [StorageMethod.FLAT, StorageMethod.INDEXED, StorageMethod.BOTH]
)
class TestWriteOperators:
    def test_update_by_predicate(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        updated = oblivious_update(
            table,
            Comparison("key", "<", 3),
            lambda row: (row[0], "updated"),
        )
        assert updated == 3
        rows = dict(table.rows())
        assert rows[0] == rows[1] == rows[2] == "updated"
        assert rows[3] == "v3"

    def test_delete_by_predicate(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        deleted = oblivious_delete(table, Comparison("key", ">=", 6))
        assert deleted == 6
        assert sorted(row[0] for row in table.rows()) == list(range(6))

    def test_update_nonkey_predicate(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        updated = oblivious_update(
            table,
            Comparison("value", "=", "v5"),
            lambda row: (row[0], "found"),
        )
        assert updated == 1
        assert table.point_lookup(5) == [(5, "found")]

    def test_update_changing_key(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        oblivious_update(
            table, Comparison("key", "=", 7), lambda row: (70, row[1]), assigns_key=True
        )
        assert table.point_lookup(7) == []
        assert table.point_lookup(70) == [(70, "v7")]


@pytest.mark.parametrize("method", [StorageMethod.INDEXED, StorageMethod.BOTH])
class TestKeyedWrites:
    """With the key interval its predicate implies, an UPDATE / DELETE takes
    the index's candidates from one padded range lookup — the same rows the
    linear scan finds, without opening every bucket."""

    PREDICATES = [
        Comparison("key", "=", 7),
        Comparison("key", "=", 99),  # a miss
        And(Comparison("key", ">=", 3), Comparison("key", "<", 6)),
        And(Comparison("key", "<=", 4), Comparison("value", "!=", "v2")),
    ]

    @pytest.mark.parametrize("predicate", PREDICATES, ids=str)
    def test_same_rows_as_the_linear_scan(
        self, kv_schema: Schema, method: StorageMethod, predicate
    ) -> None:
        interval = predicate.key_interval("key")
        assert interval is not None
        outcomes = []
        for keyed in (interval, None):
            tables = []
            for _ in range(2):
                enclave = Enclave(oblivious_memory_bytes=1 << 24, cipher="null")
                tables.append(make_table(enclave, kv_schema, method))
            updating, deleting = tables
            reads = updating.enclave.cost.untrusted_reads
            updated = oblivious_update(
                updating, predicate, lambda row: (row[0], "updated"), keyed
            )
            reads = updating.enclave.cost.untrusted_reads - reads
            deleted = oblivious_delete(deleting, predicate, keyed)
            outcomes.append(
                (
                    updated,
                    deleted,
                    list(updating.indexed.items()),
                    list(deleting.indexed.items()),
                    sorted(updating.rows()),
                    sorted(deleting.rows()),
                )
            )
            if method is StorageMethod.INDEXED:  # no flat pass beside it
                scanned = reads >= updating.indexed.oram.num_buckets - 31
                assert scanned == (keyed is None)
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0] == outcomes[0][1] == sum(
            1 for key in range(12) if predicate.compile(kv_schema)((key, f"v{key}"))
        )

    def test_key_change_through_the_interval(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        predicate = Comparison("key", "=", 7)
        oblivious_update(
            table,
            predicate,
            lambda row: (70, row[1]),
            predicate.key_interval("key"),
            assigns_key=True,
        )
        assert table.point_lookup(7) == []
        assert table.point_lookup(70) == [(70, "v7")]


class TestProject:
    def test_projection(self, fast_enclave: Enclave, wide_schema: Schema) -> None:
        table = FlatStorage(fast_enclave, wide_schema, 8)
        table.fast_insert((1, 2, 3, "a"))
        table.fast_insert((4, 5, 6, "b"))
        out = project(table, ["measure", "id"])
        assert out.schema.column_names() == ["measure", "id"]
        assert sorted(out.rows()) == [(3, 1), (6, 4)]

    def test_preserves_dummies_and_capacity(
        self, fast_enclave: Enclave, wide_schema: Schema
    ) -> None:
        table = FlatStorage(fast_enclave, wide_schema, 8)
        table.fast_insert((1, 2, 3, "a"))
        out = project(table, ["id"])
        assert out.capacity == 8
        assert out.used_rows == 1

    def test_uniform_access_pattern(self, fast_enclave: Enclave, wide_schema: Schema) -> None:
        table = FlatStorage(fast_enclave, wide_schema, 8)
        table.fast_insert((1, 2, 3, "a"))
        fast_enclave.trace.clear()
        project(table, ["id"])
        ops = [event.op for event in fast_enclave.trace.events]
        # Init writes of the output region, then strict R/W alternation.
        rw_tail = [op for op in ops if True][8:]
        assert rw_tail == ["R", "W"] * 8
