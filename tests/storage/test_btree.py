"""Unit tests for the oblivious B+ tree."""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave, StorageError
from repro.storage import ObliviousBPlusTree, Schema, int_column, str_column


def make_tree(
    enclave: Enclave, schema: Schema, capacity: int = 200, order: int = 8, seed: int = 1
) -> ObliviousBPlusTree:
    return ObliviousBPlusTree(
        enclave, schema, "key", capacity, order=order, rng=random.Random(seed)
    )


class TestBasicOperations:
    def test_empty_tree(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        assert tree.count == 0
        assert tree.height == 0
        assert tree.search(1) == []
        assert tree.range_scan(None, None) == []

    def test_single_insert_and_search(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        tree.insert((5, "five"))
        assert tree.search(5) == [(5, "five")]
        assert tree.search(6) == []
        assert tree.height == 1

    def test_sequential_inserts(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        for key in range(100):
            tree.insert((key, f"v{key}"))
        assert tree.count == 100
        for key in (0, 50, 99):
            assert tree.search(key) == [(key, f"v{key}")]

    def test_random_order_inserts(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        keys = list(range(120))
        random.Random(5).shuffle(keys)
        for key in keys:
            tree.insert((key, f"v{key}"))
        assert [row[0] for row in tree.items()] == sorted(keys)

    def test_descending_inserts(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        for key in reversed(range(60)):
            tree.insert((key, "x"))
        assert [row[0] for row in tree.items()] == list(range(60))

    def test_duplicate_keys(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        tree.insert((7, "a"))
        tree.insert((7, "b"))
        tree.insert((7, "c"))
        assert sorted(row[1] for row in tree.search(7)) == ["a", "b", "c"]

    def test_string_keys(self, fast_enclave: Enclave) -> None:
        schema = Schema([str_column("key", 10), int_column("v")])
        tree = ObliviousBPlusTree(
            fast_enclave, schema, "key", 64, rng=random.Random(2)
        )
        dates = ["2018-03-01", "2018-01-15", "2018-09-30", "2017-12-31"]
        for i, date in enumerate(dates):
            tree.insert((date, i))
        assert [row[0] for row in tree.items()] == sorted(dates)
        assert tree.search("2018-01-15") == [("2018-01-15", 1)]

    def test_capacity_enforced(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema, capacity=4)
        for key in range(4):
            tree.insert((key, "x"))
        with pytest.raises(StorageError):
            tree.insert((9, "x"))


class TestRangeScan:
    @pytest.fixture
    def tree(self, fast_enclave: Enclave, kv_schema: Schema) -> ObliviousBPlusTree:
        tree = make_tree(fast_enclave, kv_schema)
        keys = list(range(0, 100, 2))  # even keys
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert((key, f"v{key}"))
        return tree

    def test_inclusive_bounds(self, tree: ObliviousBPlusTree) -> None:
        rows = tree.range_scan(10, 20)
        assert [row[0] for row in rows] == [10, 12, 14, 16, 18, 20]

    def test_bounds_between_keys(self, tree: ObliviousBPlusTree) -> None:
        rows = tree.range_scan(9, 21)
        assert [row[0] for row in rows] == [10, 12, 14, 16, 18, 20]

    def test_open_low(self, tree: ObliviousBPlusTree) -> None:
        rows = tree.range_scan(None, 6)
        assert [row[0] for row in rows] == [0, 2, 4, 6]

    def test_open_high(self, tree: ObliviousBPlusTree) -> None:
        rows = tree.range_scan(94, None)
        assert [row[0] for row in rows] == [94, 96, 98]

    def test_empty_range(self, tree: ObliviousBPlusTree) -> None:
        assert tree.range_scan(200, 300) == []

    def test_full_range(self, tree: ObliviousBPlusTree) -> None:
        assert len(tree.range_scan(None, None)) == 50


class TestDelete:
    def test_delete_existing(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        for key in range(50):
            tree.insert((key, "x"))
        assert tree.delete(25) == 1
        assert tree.search(25) == []
        assert tree.count == 49

    def test_delete_missing(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        tree.insert((1, "x"))
        assert tree.delete(2) == 0
        assert tree.count == 1

    def test_delete_everything(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        keys = list(range(80))
        rng = random.Random(11)
        rng.shuffle(keys)
        for key in keys:
            tree.insert((key, "x"))
        rng.shuffle(keys)
        for key in keys:
            assert tree.delete(key) == 1
        assert tree.count == 0
        assert tree.height == 0
        assert tree.search(5) == []

    def test_interleaved_insert_delete(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        rng = random.Random(13)
        mirror: dict[int, str] = {}
        for step in range(400):
            key = rng.randrange(60)
            if key in mirror:
                assert tree.delete(key) == 1
                del mirror[key]
            else:
                tree.insert((key, f"v{step}"))
                mirror[key] = f"v{step}"
        assert sorted(row[0] for row in tree.items()) == sorted(mirror)

    def test_an_emptied_walk_tree_is_the_empty_tree(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        """Without summaries a delete may remove a duplicate off its descent
        path and rebalance nothing, so emptied leaves never merge.  Once no
        row is left the tree is the empty tree whatever it went through:
        height 0, so the next insert pads as a first insert does."""
        tree = ObliviousBPlusTree(
            fast_enclave, kv_schema, "key", 64, order=4, rng=random.Random(1),
            resident_levels=0,
        )
        keys = [0, 2, 0, 3, 3, 3]
        for key in keys:
            tree.insert((key, "x"))
        for key in sorted(keys, reverse=True):
            assert tree.delete(key) == 1
        assert (tree.count, tree.height, tree.resident_nodes) == (0, 0, 0)
        assert tree.search(0) == []
        fresh = ObliviousBPlusTree(
            fast_enclave, kv_schema, "key", 64, order=4, rng=random.Random(1),
            resident_levels=0,
        )
        costs = []
        for index in (tree, fresh):
            before = fast_enclave.cost.oram_accesses
            index.insert((9, "y"))
            costs.append(fast_enclave.cost.oram_accesses - before)
        assert costs[0] == costs[1] == 3 * 1 + 4
        assert list(tree.items()) == [(9, "y")]

    def test_tree_shrinks_after_mass_delete(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        for key in range(100):
            tree.insert((key, "x"))
        tall = tree.height
        for key in range(99):
            tree.delete(key)
        assert tree.height < tall


class TestUpdate:
    def test_update_value(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        tree.insert((5, "old"))
        assert tree.update(5, (5, "new")) == 1
        assert tree.search(5) == [(5, "new")]

    def test_update_missing(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        tree.insert((5, "x"))
        assert tree.update(6, (6, "y")) == 0

    def test_update_key_change_rejected(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        tree.insert((5, "x"))
        with pytest.raises(StorageError):
            tree.update(5, (6, "x"))


class TestObliviousnessPadding:
    def test_insert_access_count_fixed_at_height(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        """All inserts at a given tree height cost identically — the
        padding modification of Section 3.2."""
        tree = make_tree(fast_enclave, kv_schema, capacity=500)
        for key in range(100):
            tree.insert((key, "x"))
        height = tree.height
        counts = set()
        for key in (1000, 2000, 3000, 4000, 5000):
            before = fast_enclave.cost.oram_accesses
            tree.insert((key, "y"))
            if tree.height == height:
                counts.add(fast_enclave.cost.oram_accesses - before)
        assert len(counts) == 1

    def test_delete_access_count_fixed_at_height(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        tree = make_tree(fast_enclave, kv_schema, capacity=500)
        for key in range(200):
            tree.insert((key, "x"))
        height = tree.height
        counts = set()
        for key in (5, 90, 170, 9999):  # hits and a miss
            before = fast_enclave.cost.oram_accesses
            tree.delete(key)
            if tree.height == height:
                counts.add(fast_enclave.cost.oram_accesses - before)
        assert len(counts) == 1

    def test_search_access_count_fixed(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        """Lookups need no padding: every root→leaf descent plus one record
        access costs the same, hit or (single-result) miss."""
        tree = make_tree(fast_enclave, kv_schema, capacity=500)
        for key in range(0, 300, 2):
            tree.insert((key, "x"))
        counts = set()
        for key in (0, 100, 298, 1, 301):  # hits and misses
            before = fast_enclave.cost.oram_accesses
            tree.search(key)
            counts.add(fast_enclave.cost.oram_accesses - before)
        assert len(counts) == 1


class TestLinearScan:
    def test_scan_matches_items(self, fast_enclave: Enclave, kv_schema: Schema) -> None:
        tree = make_tree(fast_enclave, kv_schema)
        keys = list(range(70))
        random.Random(17).shuffle(keys)
        for key in keys:
            tree.insert((key, f"v{key}"))
        tree.delete(10)
        tree.delete(20)
        scanned = sorted(row[0] for row in tree.linear_scan())
        assert scanned == sorted(set(range(70)) - {10, 20})

    def test_scan_access_pattern_is_sequential(
        self, fast_enclave: Enclave, kv_schema: Schema
    ) -> None:
        """The fallback scan reads raw buckets in order: a fixed pattern."""
        tree = make_tree(fast_enclave, kv_schema, capacity=64)
        for key in range(30):
            tree.insert((key, "x"))
        fast_enclave.trace.clear()
        list(tree.linear_scan())
        events = fast_enclave.trace.events
        assert all(event.op == "R" for event in events)
        assert [event.index for event in events] == sorted(
            event.index for event in events
        )
