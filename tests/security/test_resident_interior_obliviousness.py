"""Leakage with the B+ tree's interior resident in oblivious memory.

Keeping the top levels of the tree inside the enclave deletes ORAM accesses
from every index operation — the descent's reads of those levels, and their
share of each padded worst case — and adds none.  How many go is a function
of the tree height and the public level rule, so what is left is still a
public number of uniformly random paths.  These tests hold that from the
outside, at several settings of the boundary: indexes of equal public shape
and different keys and values are indistinguishable under every operation;
hits, misses and leaf-boundary lookups are indistinguishable from each
other; and whole statements, keyed writes included, leak only their plan.
"""

from __future__ import annotations

import random

import pytest

from repro import ObliDB, PaddingConfig
from repro.analysis import assert_indistinguishable, canonicalize, oram_regions_of
from repro.enclave import Enclave
from repro.planner import AccessMethod, WriteNode
from repro.storage import ObliviousBPlusTree, Schema, int_column, str_column
from repro.storage.btree import _LeafNode

SCHEMA = Schema([int_column("key"), str_column("value", 12)])
ROWS = 200

#: Every interior level (the rule at this size: 3 of the 4 levels 300 rows
#: can build), the root of this three-level tree alone, none (the paper).
SETTINGS = [None, 2, 0]


def build(contents: int, resident_levels: int | None) -> tuple[Enclave, ObliviousBPlusTree, list[int]]:
    """200 rows of the same shape — different keys and values per
    ``contents`` — under one rng seed."""
    enclave = Enclave(cipher="null", keep_trace_events=True)
    tree = ObliviousBPlusTree(
        enclave, SCHEMA, "key", 300, rng=random.Random(7), resident_levels=resident_levels
    )
    rng = random.Random(contents)
    keys = rng.sample(range(0, 10_000, 2), ROWS)  # even: odd keys are misses
    tree.bulk_load([(key, f"c{contents}-{key}") for key in keys])
    assert tree.height == 3
    return enclave, tree, sorted(keys)


def trace_of(enclave: Enclave, tree: ObliviousBPlusTree, operation) -> object:
    enclave.trace.clear()
    before = enclave.cost.oram_accesses
    operation()
    accesses = enclave.cost.oram_accesses - before
    events = enclave.trace.events
    oram = tree.oram
    assert {event.region for event in events} == {oram.region_name}
    assert len(events) == accesses * 2 * (oram.levels - oram.treetop_levels)
    return accesses, canonicalize(events, {oram.region_name})


OPERATIONS = {
    "search_hit": lambda tree, keys, pick: tree.search(keys[pick]),
    "search_miss": lambda tree, keys, pick: tree.search(keys[pick] + 1),
    "range": lambda tree, keys, pick: tree.range_scan(keys[pick], keys[pick + 4]),
    "insert": lambda tree, keys, pick: tree.insert((keys[pick] + 1, "new")),
    "delete_hit": lambda tree, keys, pick: tree.delete(keys[pick]),
    "delete_miss": lambda tree, keys, pick: tree.delete(keys[pick] + 1),
    "update_hit": lambda tree, keys, pick: tree.update(keys[pick], (keys[pick], "u")),
    "update_miss": lambda tree, keys, pick: tree.update(keys[pick] + 1, (keys[pick] + 1, "u")),
}


def lookup(g: int, rows: int) -> int:
    """A lookup of ``rows`` results at ``g`` ORAM levels (order 8: three
    keys a leaf at least).  At ``g == 1`` the leaves' parents are resident
    and their key summaries leave only the leaves the result meets,
    1 + ⌈(r − 1) / 3⌉; above it the walk's allowance of r // 3 + 2."""
    r = max(1, rows)
    if g == 1:
        return 1 + (r + 1) // 3 + r
    return g + r + rows // 3 + 2


#: What each operation must cost at ``g`` ORAM levels (order 8).
CLOSED_FORM = {
    "search_hit": lambda g: lookup(g, 1),
    "search_miss": lambda g: lookup(g, 0),
    "range": lambda g: lookup(g, 5),
    "insert": lambda g: 3 * g + 4,
    "delete_hit": lambda g: 6 * g + 6 + 2,
    "delete_miss": lambda g: 6 * g + 6 + 2,
    "update_hit": lambda g: lookup(g, 1),
    "update_miss": lambda g: lookup(g, 1),
}


@pytest.mark.parametrize("resident_levels", SETTINGS)
@pytest.mark.parametrize("operation", sorted(OPERATIONS))
def test_equal_shape_different_contents_same_trace(operation, resident_levels) -> None:
    traces = []
    for contents, pick in ((1, 3), (2, 150), (3, 77)):
        enclave, tree, keys = build(contents, resident_levels)
        accesses, trace = trace_of(
            enclave, tree, lambda: OPERATIONS[operation](tree, keys, pick)
        )
        assert accesses == CLOSED_FORM[operation](tree.oram_levels)
        traces.append(trace)
    assert_indistinguishable(traces)


@pytest.mark.parametrize("resident_levels", SETTINGS)
def test_hit_miss_and_leaf_boundary_lookups_are_indistinguishable(resident_levels) -> None:
    """The first and last key of a leaf, a key a separator equals, a miss
    inside a leaf, between two leaves and beyond either end: one trace."""
    enclave, tree, keys = build(1, resident_levels)
    leaves = []
    node_id = tree._root
    for _ in range(tree.height - 1):
        node_id = tree._load(node_id).children[0]
    while node_id >= 0:
        leaf = tree._load(node_id)
        assert isinstance(leaf, _LeafNode)
        leaves.append(leaf)
        node_id = leaf.next_leaf
    tree._cache.clear()
    decode = {tree._key_bytes(key): key for key in keys}
    third = [decode[key] for key in leaves[2].keys]
    probes = {
        "first of a leaf (a separator)": (third[0], 1),
        "last of a leaf": (third[-1], 1),
        "middle of a leaf": (third[2], 1),
        "miss inside a leaf": (third[2] + 1, 0),
        "miss between two leaves": (third[-1] + 1, 0),
        "miss below every key": (-5, 0),
        "miss above every key": (10_001, 0),
    }
    traces = []
    for label, (key, found) in probes.items():
        accesses, trace = trace_of(enclave, tree, lambda: tree.search(key))
        assert len(tree.search(key)) == found, label
        assert accesses == lookup(tree.oram_levels, found), label
        traces.append(trace)
    assert_indistinguishable(traces)


def test_resident_levels_only_remove_accesses() -> None:
    """Under one rng and one load, the boundary changes how many paths an
    operation shows — by the closed form — and nothing about each path."""
    per_access = None
    for resident_levels, levels_in_oram in ((None, 1), (2, 2), (0, 3)):
        enclave, tree, keys = build(1, resident_levels)
        assert tree.oram_levels == levels_in_oram
        accesses, trace = trace_of(enclave, tree, lambda: tree.search(keys[9]))
        assert accesses == lookup(levels_in_oram, 1)
        assert per_access in (None, trace.length // accesses)
        per_access = trace.length // accesses


class TestStatements:
    """Two databases of equal public shape and different rows."""

    CREATE = "CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 200 METHOD both KEY k"

    @classmethod
    def _db(cls, seed: int, padding: PaddingConfig | None = None) -> ObliDB:
        db = ObliDB(cipher="null", keep_trace_events=True, seed=1, padding=padding)
        db.sql(cls.CREATE)
        rng = random.Random(seed)
        keys = rng.sample(range(400), 60) + [500, 501, 502, 503]
        db.insert_many("t", [(key, rng.randrange(10**6), f"s{key % 97}") for key in keys])
        return db

    @pytest.mark.parametrize(
        "statements",
        [
            ["SELECT * FROM t WHERE k = 500", "SELECT * FROM t WHERE k = 503"],
            [
                "SELECT * FROM t WHERE k >= 500 AND k <= 502",
                "SELECT * FROM t WHERE k >= 501 AND k <= 503",
            ],
            ["INSERT INTO t VALUES (2000, 1, 'a')", "INSERT INTO t VALUES (-7, 99, 'zz')"],
            ["DELETE FROM t WHERE k = 500", "DELETE FROM t WHERE k = 503"],
            ["UPDATE t SET v = 1 WHERE k = 501", "UPDATE t SET v = 77 WHERE k = 502"],
            [
                "UPDATE t SET s = 'x' WHERE k >= 500 AND k <= 502",
                "UPDATE t SET s = 'yy' WHERE k >= 501 AND k <= 503",
            ],
        ],
        ids=["point", "range", "insert", "delete", "update", "update_range"],
    )
    def test_equal_shape_different_rows_same_trace(self, statements) -> None:
        traces, plans = [], []
        for seed, sql in zip((11, 12), statements):
            db = self._db(seed)
            tree = db.table("t").indexed.tree
            assert (tree.height, tree.oram_levels) == (3, 1)
            db.enclave.trace.clear()
            plans.append(db.sql(sql).plan.cache_key)
            traces.append(
                canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave))
            )
        assert plans[0] == plans[1]
        assert_indistinguishable(traces)

    def test_a_keyed_write_never_scans_the_buckets_and_says_so(self) -> None:
        db = self._db(11)
        oram = db.table("t").indexed.oram
        keyed = db.sql("DELETE FROM t WHERE k = 500")
        assert keyed.affected == 1
        node = keyed.plan.root
        assert isinstance(node, WriteNode)
        assert node.access_method is AccessMethod.INDEX_RANGE
        # One padded range lookup of one row (its leaf and its record),
        # one padded delete.
        assert keyed.cost["oram_accesses"] == (1 + 1) + (6 + 6 + 2)

        db.enclave.trace.clear()
        scanned = db.sql("DELETE FROM t WHERE v = -1")
        assert scanned.affected == 0
        assert scanned.plan.root.access_method is AccessMethod.INDEX_LINEAR
        assert scanned.plan.cache_key != db.explain("DELETE FROM t WHERE k = 7").cache_key
        bucket_reads = [
            event.index
            for event in db.enclave.trace.events
            if event.region == oram.region_name
        ]
        first = (1 << oram.treetop_levels) - 1
        assert bucket_reads == list(range(first, oram.num_buckets))

    def test_padding_mode_keeps_the_linear_scan(self) -> None:
        """Padding hides selectivity, which an index lookup would show."""
        db = self._db(11, padding=PaddingConfig(pad_rows=8, pad_groups=4))
        for sql in ("DELETE FROM t WHERE k = 500", "UPDATE t SET v = 2 WHERE k = 501"):
            plan = db.explain(sql)
            assert plan.root.access_method is AccessMethod.INDEX_LINEAR
        assert db.sql("DELETE FROM t WHERE k = 500").affected == 1
        assert db.sql("SELECT * FROM t WHERE k = 500").rows == []
