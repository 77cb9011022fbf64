"""Sharded tables under faults: crash sweep, tampering, recovery, verification.

``PARTITION TABLE`` is WAL-logged with its fully-resolved spec, so a crash
anywhere on the sharded path — partitioning, shuffle, compaction — recovers
to a database that either never saw the partition or holds it with the
original spec and region names, with every inserted row, and passes
``verify()``.  The sweep kills the host before and after every untrusted
access of that workload; set ``FAULT_SWEEP=1`` for the full stride (tier-1
samples it).  Tampered, moved, spliced, or stale shard blocks fail the
scan and ``verify()`` until repaired.
"""

from __future__ import annotations

import os
from collections import Counter

import pytest

from repro import FaultPlan, ObliDB, SimulatedCrash
from repro.enclave.errors import IntegrityError, StorageError
from repro.shard import ShardSpec

ROWS = [(i, f"name{i}") for i in range(64)]


def build_db(**options):
    db = ObliDB(wal=True, **options)
    db.sql("CREATE TABLE t (id INT, name STR(12)) CAPACITY 128 METHOD flat KEY id")
    db.insert_many("t", ROWS)
    return db


@pytest.mark.parametrize("shards", [1, 2, 3, 4])
def test_sharded_pipelines_keep_verify_green(shards):
    db = build_db()
    db.partition_table("t", shards=shards)
    assert db.sharded_table("t").shards == shards
    db.sharded_shuffle("t")
    assert db.sharded_compact("t") == len(ROWS)
    assert Counter(db.sharded_scan("t")) == Counter(ROWS)
    report = db.verify()
    assert report.ok, report.issues
    assert report.tables_checked >= 1


def test_tampered_shard_block_fails_scan_until_repaired():
    """A tampered shard block raises IntegrityError from the scan; the scan
    leaves no recorder attached, so after repair it succeeds again."""
    db = build_db()
    db.partition_table("t", shards=4)
    table = db.sharded_table("t")
    region = table.region_names()[1]
    slots = db.enclave.untrusted._regions[region]._slots
    good = slots[0]
    bad = bytearray(good.ciphertext)
    bad[0] ^= 0xFF
    slots[0] = good._replace(ciphertext=bytes(bad))
    with pytest.raises(IntegrityError):
        db.sharded_scan("t")
    slots[0] = good
    assert Counter(db.sharded_scan("t")) == Counter(ROWS)
    assert db.verify().ok


def _flip(data: bytes) -> bytes:
    return bytes([data[0] ^ 1]) + data[1:]


#: What a host can hand back for slot 0 of shard 1, built from that shard's
#: slots and the slots of its sibling shard 2.
DAMAGES = {
    "ciphertext-bit": lambda slots, sibling: slots[0]._replace(
        ciphertext=_flip(slots[0].ciphertext)
    ),
    "tag-bit": lambda slots, sibling: slots[0]._replace(mac=_flip(slots[0].mac)),
    "nonce-bit": lambda slots, sibling: slots[0]._replace(nonce=_flip(slots[0].nonce)),
    "slot-swap": lambda slots, sibling: slots[1],
    "sibling-shard-splice": lambda slots, sibling: sibling[0],
}


@pytest.mark.parametrize("damage", list(DAMAGES))
def test_damaged_shard_block_fails_scan_and_verify(damage):
    """Every shard region is bound to its own derived cipher and ledger
    segment: a flipped bit, a block moved within the region, or a block
    spliced in from the sibling shard's region is an ``IntegrityError``
    from the scan and an issue from ``verify()`` — never a wrong row."""
    db = build_db()
    db.partition_table("t", shards=4)
    regions = db.sharded_table("t").region_names()
    slots = db.enclave.untrusted._regions[regions[1]]._slots
    sibling = db.enclave.untrusted._regions[regions[2]]._slots
    good = slots[0]
    slots[0] = DAMAGES[damage](slots, sibling)
    with pytest.raises(IntegrityError):
        db.sharded_scan("t")
    report = db.verify()
    assert not report.ok
    assert any("sharded table 't'" in issue for issue in report.issues)
    slots[0] = good
    assert Counter(db.sharded_scan("t")) == Counter(ROWS)
    assert db.verify().ok


def test_stale_shard_block_is_a_rollback():
    """A shard block from before a compaction rewrote its slot binds an
    older revision: replaying it fails like any rollback."""
    db = build_db()
    db.partition_table("t", shards=4)
    region = db.sharded_table("t").region_names()[1]
    slots = db.enclave.untrusted._regions[region]._slots
    stale = slots[0]
    db.sharded_compact("t")
    fresh = slots[0]
    assert fresh != stale
    slots[0] = stale
    with pytest.raises(IntegrityError):
        db.sharded_scan("t")
    assert not db.verify().ok
    slots[0] = fresh
    assert Counter(db.sharded_scan("t")) == Counter(ROWS)
    assert db.verify().ok


def test_sharded_shuffle_trace_independent_of_seed():
    """The per-shard permutation seeds come from the database's generator;
    which permutation runs is hidden — the trace is the same for any seed."""

    def trace_of(seed):
        db = build_db(seed=seed, cipher="null")
        db.partition_table("t", shards=3)
        start = len(db.enclave.trace)
        db.sharded_shuffle("t")
        assert Counter(db.sharded_scan("t")) == Counter(ROWS)
        return db.enclave.trace.digest(), len(db.enclave.trace) - start

    assert trace_of(5) == trace_of(6) == trace_of(7)


def test_sharded_shuffle_replays_under_a_seed():
    def shuffled_slots(seed):
        db = build_db(seed=seed, cipher="null")
        db.partition_table("t")
        db.sharded_shuffle("t")
        table = db.sharded_table("t")
        return [table.shard(i).rows() for i in range(table.shards)]

    assert shuffled_slots(5) == shuffled_slots(5)
    assert shuffled_slots(5) != shuffled_slots(6)


def test_partition_spec_survives_kill_and_replay():
    """The WAL'd PARTITION TABLE carries the fully-resolved spec, so a
    recovered database reproduces kind, shard count, key column, and the
    exact region names — not just the row multiset."""
    db = ObliDB(wal=True)
    db.sql("CREATE TABLE t (id INT, name STR(12)) CAPACITY 128 METHOD flat")
    db.insert_many("t", ROWS)
    db.partition_table("t", kind="range", shards=3, bounds=(20, 40), key_column="id")
    original = db.sharded_table("t")

    recovered = ObliDB(wal=True)
    report = recovered.recover(db.wal)
    assert report.replayed > 0
    replayed = recovered.sharded_table("t")
    assert replayed.spec == original.spec
    assert replayed.region_names() == original.region_names()
    assert Counter(recovered.sharded_scan("t")) == Counter(ROWS)
    assert recovered.verify().ok


def test_partition_table_guards():
    db = ObliDB()
    db.sql("CREATE TABLE t (id INT, name STR(12)) CAPACITY 32 METHOD flat KEY id")
    db.insert_many("t", ROWS[:8])
    db.partition_table("t", shards=2)
    assert db.sharded_table_names() == ["t"]
    assert "t" not in db.table_names()
    with pytest.raises(StorageError, match="already sharded"):
        db.partition_table("t")
    with pytest.raises(StorageError, match="no table named"):
        db.partition_table("missing")


# ----------------------------------------------------------------------
# Kill-and-replay sweep over the sharded path
# ----------------------------------------------------------------------
SWEEP_ROWS = [(i, f"n{i}") for i in range(12)]
#: A partition request without a shard count resolves to 2 shards.
SWEEP_SPEC = ShardSpec("hash", 2, "id")
SWEEP_REGIONS = ["table:t:shard0", "table:t:shard1"]


def _sweep_workload(db: ObliDB, acked: list[str]) -> None:
    db.sql("CREATE TABLE t (id INT, name STR(8)) CAPACITY 16 METHOD flat KEY id")
    acked.append("create")
    db.insert_many("t", SWEEP_ROWS)
    acked.append("insert")
    db.partition_table("t")  # logs the resolved spec: ... SHARDS 2
    acked.append("partition")
    db.sharded_shuffle("t")
    assert db.sharded_compact("t") == len(SWEEP_ROWS)


def _sweep_db(plan: FaultPlan) -> ObliDB:
    return ObliDB(cipher="null", wal=True, fault_plan=plan, retry=None, seed=3)


@pytest.mark.parametrize("mode", ["at", "after"])
def test_crash_sweep_over_the_sharded_path(mode):
    honest = _sweep_db(FaultPlan())
    _sweep_workload(honest, [])
    total = honest.enclave.untrusted.accesses
    stride = 1 if os.environ.get("FAULT_SWEEP") == "1" else max(1, total // 40)
    outcomes = Counter()
    for k in range(0, total, stride):
        plan = FaultPlan()
        plan.crash_at(k) if mode == "at" else plan.crash_after(k)
        db = _sweep_db(plan)
        acked: list[str] = []
        with pytest.raises(SimulatedCrash):
            _sweep_workload(db, acked)
        recovered = ObliDB(cipher="null")
        recovered.recover(db.wal)
        check = recovered.verify()
        assert check.ok, f"k={k}: {check.issues}"
        if "t" in recovered.sharded_table_names():
            table = recovered.sharded_table("t")
            assert table.spec == SWEEP_SPEC, f"k={k}"
            assert table.region_names() == SWEEP_REGIONS, f"k={k}"
            rows = recovered.sharded_scan("t")
            outcomes["partitioned"] += 1
        else:
            assert "partition" not in acked, f"k={k}"
            if "t" not in recovered.table_names():
                assert not acked, f"k={k}"
                continue
            rows = recovered.table("t").rows()
            outcomes["unpartitioned"] += 1
        if "insert" in acked:
            assert Counter(rows) == Counter(SWEEP_ROWS), f"k={k}"
        else:  # the group-committed batch is all-in or all-out
            assert Counter(rows) in (Counter(), Counter(SWEEP_ROWS)), f"k={k}"
    assert outcomes["partitioned"] and outcomes["unpartitioned"]
