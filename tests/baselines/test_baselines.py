"""Unit tests for the comparison systems (Opaque, Spark-like, HIRB, MySQL-like,
naive ORAM select)."""

from __future__ import annotations

import random

import pytest

from repro.baselines import (
    HIRBMap,
    OpaqueSystem,
    PlainIndex,
    PlainSystem,
)
from repro.enclave import Enclave
from repro.operators import AggregateFunction, AggregateSpec, Comparison
from repro.storage import Schema, int_column

SCHEMA = Schema([int_column("k"), int_column("v")])


class TestOpaqueSystem:
    @pytest.fixture
    def opaque(self) -> OpaqueSystem:
        system = OpaqueSystem(oblivious_memory_bytes=1 << 16, cipher="null")
        system.create_table("t", SCHEMA, 32)
        system.load_rows("t", [(i, i * 10) for i in range(20)])
        return system

    def test_filter(self, opaque: OpaqueSystem) -> None:
        out = opaque.filter("t", Comparison("k", "<", 5))
        assert sorted(out.rows()) == [(i, i * 10) for i in range(5)]

    def test_filter_output_is_compacted_prefix(self, opaque: OpaqueSystem) -> None:
        out = opaque.filter("t", Comparison("k", "<", 5))
        prefix = [out.read_row(i) for i in range(5)]
        assert all(row is not None for row in prefix)
        assert all(out.read_row(i) is None for i in range(5, out.capacity))

    def test_filter_scans_whole_table_regardless_of_selectivity(
        self, opaque: OpaqueSystem
    ) -> None:
        """The defining Opaque property: point-ish queries cost full sorts."""
        costs = []
        for predicate in (Comparison("k", "=", 3), Comparison("k", ">=", 0)):
            before = opaque.enclave.cost.block_ios
            opaque.filter("t", predicate)
            costs.append(opaque.enclave.cost.block_ios - before)
        assert costs[0] == costs[1]

    def test_aggregate(self, opaque: OpaqueSystem) -> None:
        result = opaque.aggregate("t", [AggregateSpec(AggregateFunction.COUNT)])
        assert result == (20,)

    def test_group_by(self, opaque: OpaqueSystem) -> None:
        system = OpaqueSystem(oblivious_memory_bytes=1 << 16, cipher="null")
        system.create_table("g", SCHEMA, 16)
        system.load_rows("g", [(i % 3, i) for i in range(12)])
        out = system.group_by(
            "g", "k", [AggregateSpec(AggregateFunction.SUM, "v")]
        )
        expected = sorted(
            (g, float(sum(i for i in range(12) if i % 3 == g))) for g in range(3)
        )
        assert sorted(out.rows()) == expected

    def test_join(self) -> None:
        system = OpaqueSystem(oblivious_memory_bytes=1 << 16, cipher="null")
        left_schema = Schema([int_column("pk"), int_column("a")])
        right_schema = Schema([int_column("fk"), int_column("b")])
        system.create_table("l", left_schema, 8)
        system.create_table("r", right_schema, 8)
        system.load_rows("l", [(i, i) for i in range(4)])
        system.load_rows("r", [(i % 4, 100 + i) for i in range(8)])
        out = system.join("l", "r", "pk", "fk")
        assert len(out.rows()) == 8


class TestPlainSystem:
    @pytest.fixture
    def plain(self) -> PlainSystem:
        system = PlainSystem()
        system.create_table("t", SCHEMA)
        system.load_rows("t", [(i, i * 10) for i in range(20)])
        return system

    def test_filter(self, plain: PlainSystem) -> None:
        assert plain.filter("t", Comparison("k", "<", 3)) == [
            (0, 0), (1, 10), (2, 20),
        ]

    def test_aggregate(self, plain: PlainSystem) -> None:
        result = plain.aggregate(
            "t",
            [AggregateSpec(AggregateFunction.SUM, "v")],
            predicate=Comparison("k", "<", 3),
        )
        assert result == (30,)

    def test_group_by(self, plain: PlainSystem) -> None:
        system = PlainSystem()
        system.create_table("g", SCHEMA)
        system.load_rows("g", [(i % 2, i) for i in range(10)])
        rows = system.group_by("g", "k", [AggregateSpec(AggregateFunction.COUNT)])
        assert rows == [(0, 5.0), (1, 5.0)]

    def test_join(self, plain: PlainSystem) -> None:
        system = PlainSystem()
        system.create_table("l", Schema([int_column("pk"), int_column("a")]))
        system.create_table("r", Schema([int_column("fk"), int_column("b")]))
        system.load_rows("l", [(1, 10), (2, 20)])
        system.load_rows("r", [(1, 100), (2, 200), (3, 300)])
        assert system.join("l", "r", "pk", "fk") == [
            (1, 10, 1, 100), (2, 20, 2, 200),
        ]

    def test_cheaper_than_oblivious(self, plain: PlainSystem) -> None:
        plain.filter("t", Comparison("k", "<", 3))
        assert plain.cost.untrusted_writes == 0
        assert plain.cost.untrusted_reads == 20


class TestHIRBMap:
    def test_get_insert_delete(self) -> None:
        hirb = HIRBMap(capacity=64, rng=random.Random(1), cipher="null")
        assert hirb.get(5) is None
        hirb.insert(5, "five")
        assert hirb.get(5) == "five"
        hirb.insert(5, "five-v2")
        assert hirb.get(5) == "five-v2"
        assert hirb.count == 1
        assert hirb.delete(5)
        assert not hirb.delete(5)
        assert hirb.get(5) is None

    def test_fixed_cost_per_height(self) -> None:
        hirb = HIRBMap(capacity=256, rng=random.Random(2), cipher="null")
        for key in range(64):
            hirb.insert(key, f"v{key}")
        height = hirb.height
        costs = set()
        for key in (1, 40, 999):  # hits and a miss
            before = hirb.client.cost.oram_accesses
            hirb.get(key)
            if hirb.height == height:
                costs.add(hirb.client.cost.oram_accesses - before)
        assert len(costs) == 1

    def test_slower_than_oblidb_index(self, kv_schema: Schema) -> None:
        """The Figure 9 shape: ObliDB's enclave index beats HIRB by a
        multiple on point lookups."""
        from repro.storage import IndexedStorage

        hirb = HIRBMap(capacity=256, rng=random.Random(3), cipher="null")
        enclave = Enclave(oblivious_memory_bytes=1 << 22, cipher="null")
        oblidb = IndexedStorage(enclave, kv_schema, "key", 256, rng=random.Random(3))
        for key in range(128):
            hirb.insert(key, f"v{key}")
            oblidb.insert((key, f"v{key}"))
        before = hirb.client.cost.oram_accesses
        hirb.get(64)
        hirb_cost = hirb.client.cost.oram_accesses - before
        before = enclave.cost.oram_accesses
        oblidb.point_lookup(64)
        oblidb_cost = enclave.cost.oram_accesses - before
        assert hirb_cost >= 3 * oblidb_cost


class TestPlainIndex:
    def test_crud(self) -> None:
        index = PlainIndex()
        index.insert(3, "c")
        index.insert(1, "a")
        index.insert(2, "b")
        assert index.get(2) == "b"
        assert len(index) == 3
        assert index.delete(2)
        assert not index.delete(2)
        assert index.get(2) is None

    def test_range(self) -> None:
        index = PlainIndex()
        for key in range(10):
            index.insert(key, f"v{key}")
        assert index.range(3, 5) == [(3, "v3"), (4, "v4"), (5, "v5")]

    def test_overwrite(self) -> None:
        index = PlainIndex()
        index.insert(1, "a")
        index.insert(1, "b")
        assert index.get(1) == "b"
        assert len(index) == 1


class TestNaiveSelect:
    def test_slower_than_oblidb_select(self, fast_enclave: Enclave) -> None:
        """The intro's 'order of magnitude over naive ORAM' claim, in
        block-IO terms: the naive select (one ORAM operation per row, into
        the paper's ORAM) against Small over the same flat table."""
        from repro.operators import naive_select, small_select
        from repro.storage import FlatStorage

        flat = FlatStorage(fast_enclave, SCHEMA, 256)
        for i in range(256):
            flat.fast_insert((i, i))
        predicate = Comparison("k", "<", 32)
        before = fast_enclave.cost.block_ios
        naive_select(flat, predicate, 32, rng=random.Random(4)).free()
        naive_cost = fast_enclave.cost.block_ios - before
        before = fast_enclave.cost.block_ios
        small_select(flat, predicate, 32, buffer_rows=32).free()
        oblidb_cost = fast_enclave.cost.block_ios - before
        assert naive_cost > 5 * oblidb_cost
