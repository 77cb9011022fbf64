"""Unit tests for Table (flat / indexed / both) and its index."""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave, StorageError
from repro.storage import Schema, StorageMethod, Table, index_tree


def make_table(
    enclave: Enclave, schema: Schema, method: StorageMethod, capacity: int = 64
) -> Table:
    key = "key" if method is not StorageMethod.FLAT else None
    return Table(
        enclave,
        f"t_{method.value}",
        schema,
        capacity,
        method=method,
        key_column=key,
        rng=random.Random(4),
    )


class TestIndexTree:
    def test_point_and_range(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = index_tree(fast_enclave, kv_schema, "key", 128, rng=random.Random(1))
        for key in range(50):
            tree.insert((key, f"v{key}"))
        assert tree.search(7) == [(7, "v7")]
        assert [r[0] for r in tree.range_scan(10, 14)] == [10, 11, 12, 13, 14]

    def test_unknown_kind_is_refused(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        with pytest.raises(StorageError, match="oram_kind"):
            index_tree(fast_enclave, kv_schema, "key", 16, oram_kind="nope")
        assert fast_enclave.untrusted.region_names() == []


class TestTableMethods:
    @pytest.mark.parametrize(
        "method", [StorageMethod.FLAT, StorageMethod.INDEXED, StorageMethod.BOTH]
    )
    def test_insert_and_read_everywhere(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        for key in range(10):
            table.insert((key, f"v{key}"))
        assert table.used_rows == 10
        assert sorted(table.rows()) == [(k, f"v{k}") for k in range(10)]
        assert table.point_lookup(5) == [(5, "v5")]

    @pytest.mark.parametrize(
        "method", [StorageMethod.FLAT, StorageMethod.INDEXED, StorageMethod.BOTH]
    )
    def test_insert_many_everywhere(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        """Bulk insert keeps every representation consistent."""
        table = make_table(fast_enclave, kv_schema, method)
        table.insert_many([(key, f"v{key}") for key in range(10)])
        assert table.used_rows == 10
        assert sorted(table.rows()) == [(k, f"v{k}") for k in range(10)]
        assert table.point_lookup(7) == [(7, "v7")]

    def test_insert_many_batches_the_flat_pass(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        """The dual-copy maintenance pays ONE flat pass for k rows."""
        table = make_table(fast_enclave, kv_schema, StorageMethod.FLAT)
        capacity = table.capacity
        before = fast_enclave.cost.block_ios
        table.insert_many([(key, "x") for key in range(8)])
        assert fast_enclave.cost.block_ios - before == 2 * capacity
        fast_table = Table(
            fast_enclave, "t_fast_bulk", kv_schema, 64, method=StorageMethod.FLAT
        )
        before = fast_enclave.cost.block_ios
        fast_table.insert_many([(key, "x") for key in range(8)], fast=True)
        assert fast_enclave.cost.block_ios - before == 8  # one range write

    @pytest.mark.parametrize(
        "method", [StorageMethod.FLAT, StorageMethod.INDEXED, StorageMethod.BOTH]
    )
    def test_delete_key_everywhere(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        for key in range(10):
            table.insert((key, "x"))
        assert table.delete_key(4) == 1
        assert table.point_lookup(4) == []
        assert table.used_rows == 9

    @pytest.mark.parametrize(
        "method", [StorageMethod.FLAT, StorageMethod.INDEXED, StorageMethod.BOTH]
    )
    def test_delete_key_deletes_every_duplicate(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        table = make_table(fast_enclave, kv_schema, method)
        for value in ("a", "b", "c"):
            table.insert((5, value))
        table.insert((6, "d"))
        assert table.delete_key(5) == 3
        assert table.point_lookup(5) == []
        assert table.rows() == [(6, "d")]

    def test_both_representations_stay_consistent(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        table = make_table(fast_enclave, kv_schema, StorageMethod.BOTH)
        rng = random.Random(8)
        mirror: dict[int, str] = {}
        for step in range(60):
            key = rng.randrange(20)
            if key in mirror and rng.random() < 0.4:
                table.delete_key(key)
                del mirror[key]
            elif key not in mirror:
                table.insert((key, f"v{step}"))
                mirror[key] = f"v{step}"
        assert table.flat is not None and table.indexed is not None
        flat_rows = sorted(table.flat.rows())
        index_rows = sorted(table.indexed.items())
        assert flat_rows == index_rows == sorted(mirror.items())

    def test_indexed_requires_key_column(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        with pytest.raises(StorageError):
            Table(
                fast_enclave, "bad", kv_schema, 16, method=StorageMethod.INDEXED
            )

    @pytest.mark.parametrize("method", list(StorageMethod))
    def test_oram_kind_is_recorded_and_checked_for_every_method(
        self, fast_enclave: Enclave, kv_schema: Schema, method: StorageMethod
    ) -> None:
        """A flat table keeps its kind too: "paper" also selects the paper's
        selection algorithms over the flat copy.  An unknown kind is refused
        before any region is allocated."""
        key = "key" if method is not StorageMethod.FLAT else None
        table = Table(
            fast_enclave, "p", kv_schema, 16, method=method, key_column=key, oram_kind="paper"
        )
        assert table.oram_kind == "paper"
        regions = fast_enclave.untrusted.region_names()
        with pytest.raises(StorageError, match="oram_kind"):
            Table(
                fast_enclave, "q", kv_schema, 16, method=method, key_column=key, oram_kind="nope"
            )
        assert fast_enclave.untrusted.region_names() == regions

    def test_require_accessors(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        flat_only = make_table(fast_enclave, kv_schema, StorageMethod.FLAT)
        with pytest.raises(StorageError):
            flat_only.require_index()
        index_only = make_table(fast_enclave, kv_schema, StorageMethod.INDEXED)
        with pytest.raises(StorageError):
            index_only.require_flat()

    def test_fast_insert_flag(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        table = make_table(fast_enclave, kv_schema, StorageMethod.FLAT, capacity=32)
        before = fast_enclave.cost.block_ios
        table.insert((1, "a"), fast=True)
        assert fast_enclave.cost.block_ios - before == 1
