"""Shard-parallel hash joins over co-partitioned pairs.

The correctness contract: partitioning both sides on the join key with
the same partitioner makes the logical join exactly the union of the
per-shard joins, and the composed trace is bit-identical to running the
same per-shard ``hash_join`` calls sequentially.  Sharded tables sit
beside the catalog: partitioning one table changes no compiled plan of SQL
on the others.
"""

from __future__ import annotations

from collections import Counter

import pytest

from repro import ObliDB
from repro.enclave.enclave import Enclave
from repro.enclave.errors import QueryError, StorageError
from repro.operators.join import hash_join, joined_schema
from repro.planner import JoinAlgorithm, JoinNode
from repro.shard import ShardedTable, ShardSpec, partition_pair, sharded_hash_join
from repro.storage.flat import FlatStorage
from repro.storage.schema import Schema, int_column, str_column

ROOT = b"\x2a" * 32
LEFT_SCHEMA = Schema([int_column("k"), str_column("a", 12)])
RIGHT_SCHEMA = Schema([int_column("k"), str_column("b", 12)])
LEFT_ROWS = [((i * 13) % 257, f"l{i}") for i in range(180)]
RIGHT_ROWS = [((i * 13) % 257, f"r{i}") for i in range(0, 180, 3)]


def build_sharded(enclave, shards=3):
    spec = ShardSpec("hash", shards, "k")
    left = ShardedTable(enclave, "l", LEFT_SCHEMA, spec, LEFT_ROWS)
    right = ShardedTable(enclave, "r", RIGHT_SCHEMA, spec, RIGHT_ROWS)
    return left, right


def single_join_reference():
    """The unsharded ground truth: one hash_join over flat copies."""
    enclave = Enclave(key=ROOT, keep_trace_events=False)
    left = FlatStorage(enclave, LEFT_SCHEMA, len(LEFT_ROWS))
    right = FlatStorage(enclave, RIGHT_SCHEMA, len(RIGHT_ROWS))
    left.fast_insert_many(LEFT_ROWS)
    right.fast_insert_many(RIGHT_ROWS)
    output = hash_join(left, right, "k", "k", enclave.oblivious.free_bytes)
    return output.rows()


def test_rows_match_single_join_reference():
    enclave = Enclave(key=ROOT, keep_trace_events=False)
    left, right = build_sharded(enclave)
    rows = sharded_hash_join(
        left, right, "k", "k", enclave.oblivious.free_bytes
    )
    assert Counter(rows) == Counter(single_join_reference())
    assert len(left.last_recorders) == 3
    assert right.last_recorders is left.last_recorders


@pytest.mark.parametrize(
    "spec",
    [
        ShardSpec("hash", 1, "k"),
        ShardSpec("hash", 2, "k"),
        ShardSpec("hash", 5, "k"),
        ShardSpec("range", 4, "k", (60, 120, 200)),
    ],
    ids=["hash-1", "hash-2", "hash-5", "range-4"],
)
def test_join_is_the_union_of_per_shard_joins_for_any_partitioner(spec):
    enclave = Enclave(key=ROOT, keep_trace_events=False)
    left = ShardedTable(enclave, "l", LEFT_SCHEMA, spec, LEFT_ROWS)
    right = ShardedTable(enclave, "r", RIGHT_SCHEMA, spec, RIGHT_ROWS)
    rows = sharded_hash_join(left, right, "k", "k", enclave.oblivious.free_bytes)
    assert Counter(rows) == Counter(single_join_reference())
    assert len(left.last_recorders) == spec.shards


def test_trace_bit_identical_to_sequential_per_shard_joins():
    """Twin construction: the same per-shard joins run sequentially on a
    fresh enclave (same region-name counters, no recorders) produce the
    exact digest the sharded join composes to."""

    def sharded():
        enclave = Enclave(key=ROOT, keep_trace_events=False)
        left, right = build_sharded(enclave)
        sharded_hash_join(left, right, "k", "k", enclave.oblivious.free_bytes)
        return enclave.trace.digest(), len(enclave.trace)

    def sequential():
        enclave = Enclave(key=ROOT, keep_trace_events=False)
        left, right = build_sharded(enclave)
        names = [enclave.fresh_region_name("join") for _ in range(3)]
        for index in range(3):
            output = hash_join(
                left.shard(index),
                right.shard(index),
                "k",
                "k",
                enclave.oblivious.free_bytes,
                output_name=names[index],
            )
            output.rows()
            output.free()
        return enclave.trace.digest(), len(enclave.trace)

    assert sharded() == sequential()


def test_output_schema_is_joined_schema():
    enclave = Enclave(key=ROOT, keep_trace_events=False)
    left, right = build_sharded(enclave)
    rows = sharded_hash_join(
        left, right, "k", "k", enclave.oblivious.free_bytes
    )
    width = len(joined_schema(LEFT_SCHEMA, RIGHT_SCHEMA).columns)
    assert rows and all(len(row) == width for row in rows)


def test_mismatched_specs_rejected():
    enclave = Enclave(key=ROOT, keep_trace_events=False)
    spec3 = ShardSpec("hash", 3, "k")
    left = ShardedTable(enclave, "l", LEFT_SCHEMA, spec3, LEFT_ROWS)
    right = ShardedTable(
        enclave, "r", RIGHT_SCHEMA, ShardSpec("hash", 2, "k"), RIGHT_ROWS
    )
    with pytest.raises(StorageError, match="co-partitioned"):
        sharded_hash_join(left, right, "k", "k", 1 << 20)
    other = ShardedTable(
        enclave, "r2", RIGHT_SCHEMA, ShardSpec("hash", 3, "b"), RIGHT_ROWS[:2]
    )
    with pytest.raises(StorageError, match="join columns"):
        sharded_hash_join(left, other, "k", "k", 1 << 20)
    foreign = ShardedTable(
        Enclave(key=ROOT, keep_trace_events=False),
        "r3",
        RIGHT_SCHEMA,
        spec3,
        RIGHT_ROWS,
    )
    with pytest.raises(StorageError, match="one enclave"):
        sharded_hash_join(left, foreign, "k", "k", 1 << 20)


def test_partition_pair_helper_co_partitions():
    db = ObliDB()
    db.sql("CREATE TABLE l (k INT, a STR(12)) CAPACITY 256 METHOD flat")
    db.sql("CREATE TABLE r (k INT, b STR(12)) CAPACITY 256 METHOD flat")
    db.insert_many("l", LEFT_ROWS)
    db.insert_many("r", RIGHT_ROWS)
    left, right = partition_pair(
        db.table("l"), db.table("r"), "k", "k", shards=3
    )
    assert left.spec.key_column == "k" and right.spec.key_column == "k"
    assert left.spec == right.spec
    db.close()


# ----------------------------------------------------------------------
# The ObliDB surface
# ----------------------------------------------------------------------
def test_database_partition_pair_and_sharded_join():
    db = ObliDB()
    db.sql("CREATE TABLE l (k INT, a STR(12)) CAPACITY 256 METHOD flat")
    db.sql("CREATE TABLE r (k INT, b STR(12)) CAPACITY 256 METHOD flat")
    db.insert_many("l", LEFT_ROWS)
    db.insert_many("r", RIGHT_ROWS)
    db.partition_pair("l", "r", "k", "k")
    assert db.sharded_table_names() == ["l", "r"]
    rows = db.sharded_join("l", "r", "k", "k")
    assert Counter(rows) == Counter(single_join_reference())
    assert db.verify().ok
    db.close()


def test_sql_partition_statement_and_wal_replay():
    db = ObliDB(wal=True)
    db.sql("CREATE TABLE l (k INT, a STR(12)) CAPACITY 256 METHOD flat")
    db.sql("CREATE TABLE r (k INT, b STR(12)) CAPACITY 256 METHOD flat")
    db.insert_many("l", LEFT_ROWS)
    db.insert_many("r", RIGHT_ROWS)
    db.sql("PARTITION TABLE l BY HASH (k) SHARDS 3")
    db.sql("PARTITION TABLE r BY HASH (k) SHARDS 3")
    rows = db.sharded_join("l", "r", "k", "k")
    assert Counter(rows) == Counter(single_join_reference())

    recovered = ObliDB(wal=True)
    recovered.recover(db.wal)
    assert recovered.sharded_table_names() == ["l", "r"]
    assert recovered.sharded_table("l").spec == db.sharded_table("l").spec
    again = recovered.sharded_join("l", "r", "k", "k")
    assert Counter(again) == Counter(rows)
    assert recovered.verify().ok
    db.close()
    recovered.close()


@pytest.mark.parametrize("surface", ["sql", "api"])
def test_partition_without_a_shard_count_resolves_to_two(surface):
    """Both surfaces resolve a missing ``SHARDS`` to 2 shards, and WAL
    replay reproduces that layout and its region names."""
    db = ObliDB(wal=True)
    db.sql("CREATE TABLE t (k INT, a STR(12)) CAPACITY 256 METHOD flat KEY k")
    db.insert_many("t", LEFT_ROWS)
    if surface == "sql":
        db.sql("PARTITION TABLE t BY HASH (k)")
    else:
        db.partition_table("t")
    table = db.sharded_table("t")
    assert table.spec == ShardSpec("hash", 2, "k")
    assert table.region_names() == ["table:t:shard0", "table:t:shard1"]

    recovered = ObliDB(wal=True)
    recovered.recover(db.wal)
    assert recovered.sharded_table("t").spec == table.spec
    assert recovered.sharded_table("t").region_names() == table.region_names()
    assert Counter(recovered.sharded_scan("t")) == Counter(LEFT_ROWS)
    assert recovered.verify().ok
    db.close()
    recovered.close()


@pytest.mark.parametrize(
    "statement",
    [
        "SELECT * FROM l WHERE a = 'l3'",  # flat select
        "SELECT * FROM l WHERE k >= 10 AND k <= 40",  # indexed range select
        "SELECT a, COUNT(*) FROM l GROUP BY a",
        "SELECT a, b FROM l JOIN r ON l.k = r.k WHERE b < 'r5'",
    ],
    ids=["flat-select", "indexed-range", "group-by", "join"],
)
def test_partitioning_another_table_changes_no_compiled_plan(statement):
    """Sharded tables sit beside the catalog, not in it: partitioning one
    table leaves the rows and compiled plan of SQL on the others as they
    were."""

    def run(partition_other: bool):
        db = ObliDB(seed=11)
        db.sql("CREATE TABLE l (k INT, a STR(12)) CAPACITY 64 METHOD both KEY k")
        db.sql("CREATE TABLE r (k INT, b STR(12)) CAPACITY 256 METHOD flat")
        db.sql("CREATE TABLE x (k INT, c STR(12)) CAPACITY 64 METHOD flat")
        db.insert_many("l", [(i, f"l{i % 5}") for i in range(60)])
        db.insert_many("r", [(i % 60, f"r{i}") for i in range(200)])
        db.insert_many("x", [(i, f"x{i}") for i in range(30)])
        if partition_other:
            db.partition_table("x", shards=3)
        result = db.sql(statement)
        db.close()
        return result

    plain, beside = run(False), run(True)
    assert beside.rows == plain.rows
    assert beside.plan.cache_key == plain.plan.cache_key
    if " JOIN " in statement:
        assert plain.plan.find(JoinNode).algorithm is JoinAlgorithm.HASH


def test_plain_sql_on_partitioned_table_names_the_shard_surface():
    """SELECT on a sharded table must say *why* it is gone, not 404."""
    db = ObliDB()
    db.sql("CREATE TABLE t (k INT, a STR(12)) CAPACITY 64 METHOD flat")
    db.insert_many("t", LEFT_ROWS[:8])
    db.partition_table("t", shards=2)
    with pytest.raises(QueryError, match="partitioned into shards"):
        db.sql("SELECT * FROM t")
    db.close()


def test_partition_has_no_explainable_plan():
    db = ObliDB()
    db.sql("CREATE TABLE t (k INT) CAPACITY 8 METHOD flat")
    with pytest.raises(QueryError, match="no physical plan"):
        db.explain("PARTITION TABLE t BY HASH (k) SHARDS 2")
    with pytest.raises(QueryError, match="no physical plan"):
        db.sql("EXPLAIN PARTITION TABLE t BY HASH (k) SHARDS 2")
    db.close()


def test_partition_validates_before_logging():
    """A bad partition request must not leave an unreplayable WAL record."""
    from repro.enclave.errors import SchemaError

    db = ObliDB(wal=True)
    db.sql("CREATE TABLE t (k INT) CAPACITY 8 METHOD flat")
    logged = db.wal.count
    with pytest.raises(SchemaError):
        db.partition_table("t", key_column="missing")
    with pytest.raises(StorageError):
        db.partition_table("t", kind="range", shards=3, bounds=(1,))
    assert db.wal.count == logged
    db.close()
