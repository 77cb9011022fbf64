"""Durability around inserts: refused writes and a crash inside a bulk load.

Two properties of the write-ahead log on the insert paths:

* a write the engine refuses without mutating anything (schema, capacity)
  must not reach the log — else the refusal is durable and every later
  ``recover()`` replays it and fails the same way;
* killing the process at any untrusted access of a ``wal=True`` initial load
  (the bottom-up index build included) leaves a log from which
  ``recover()`` rebuilds a database that passes ``verify()`` and serves
  every acknowledged row through the index.
"""

from __future__ import annotations

import os

import pytest

from repro import FaultPlan, ObliDB, SimulatedCrash
from repro.enclave.errors import CapacityError, SchemaError

# ----------------------------------------------------------------------
# A refused write does not poison the log
# ----------------------------------------------------------------------


def _recovered_like(db: ObliDB) -> ObliDB:
    fresh = ObliDB(cipher="null", seed=7)
    fresh.recover(db.wal)
    check = fresh.verify()
    assert check.ok, check.issues
    assert sorted(fresh.sql("SELECT * FROM t").rows) == sorted(
        db.sql("SELECT * FROM t").rows
    )
    return fresh


@pytest.mark.parametrize("method", ["flat", "both KEY id", "indexed KEY id"])
def test_refused_single_insert_is_not_logged(method: str) -> None:
    db = ObliDB(cipher="null", seed=7, wal=True)
    db.sql(f"CREATE TABLE t (id INT, name STR(8)) CAPACITY 2 METHOD {method}")
    db.sql("INSERT INTO t VALUES (1, 'a')")
    db.insert("t", (2, "b"))
    logged = db.wal.committed_count
    with pytest.raises(CapacityError):
        db.sql("INSERT INTO t VALUES (3, 'c')")
    with pytest.raises(CapacityError):
        db.insert("t", (3, "c"))
    with pytest.raises(SchemaError):
        db.sql("INSERT INTO t VALUES (3, 'far too long a name')")
    with pytest.raises(SchemaError):
        db.insert("t", ("three", "c"))
    assert db.wal.committed_count == db.wal.count == logged
    _recovered_like(db)


@pytest.mark.parametrize("fast", [False, True])
def test_refused_batch_is_not_logged(fast: bool) -> None:
    db = ObliDB(cipher="null", seed=7, wal=True)
    db.sql("CREATE TABLE t (id INT, name STR(8)) CAPACITY 4 METHOD both KEY id")
    db.insert_many("t", [(1, "a"), (2, "b")], fast=fast)
    logged = db.wal.committed_count
    with pytest.raises(CapacityError):
        db.insert_many("t", [(3, "c"), (4, "d"), (5, "e")], fast=fast)
    with pytest.raises(SchemaError):
        db.insert_many("t", [(3, "c"), (4, "d" * 20)], fast=fast)
    assert db.wal.committed_count == db.wal.count == logged
    db.insert_many("t", [(3, "c"), (4, "d")], fast=fast)  # still fits, still logs
    assert db.wal.committed_count == logged + 2
    _recovered_like(db)


def test_refused_bulk_load_writes_nothing() -> None:
    """The initial-load path runs the same ``n <= capacity`` check before
    its first write: nothing logged, nothing traced, epoch unchanged."""
    db = ObliDB(cipher="null", seed=7, wal=True, keep_trace_events=True)
    db.sql("CREATE TABLE t (id INT, name STR(8)) CAPACITY 4 METHOD indexed KEY id")
    table = db.table("t")
    events, revision, logged = len(db.enclave.trace), table.revision, db.wal.count
    with pytest.raises(CapacityError):
        db.insert_many("t", [(i, "x") for i in range(5)])
    assert len(db.enclave.trace) == events
    assert table.revision == revision
    assert db.wal.count == logged
    _recovered_like(db)


# ----------------------------------------------------------------------
# Kill-and-replay sweep over a bulk load
# ----------------------------------------------------------------------
CREATE = "CREATE TABLE t (id INT, name STR(8)) CAPACITY 16 METHOD both KEY id"
LOAD = [(key, f"n{key}") for key in (9, 3, 12, 3, 7, 1, 15, 4, 11, 6, 2, 8)]
LATER = (20, "late")


def _build(plan: FaultPlan) -> ObliDB:
    return ObliDB(cipher="null", seed=7, wal=True, fault_plan=plan, retry=None)


def _run_workload(db: ObliDB, acked: list[tuple]) -> None:
    db.sql(CREATE)
    assert db.table("t").indexed.prefers_bulk_load(len(LOAD))
    db.insert_many("t", list(LOAD), fast=True)
    acked.extend(LOAD)
    db.sql(f"INSERT INTO t VALUES ({LATER[0]}, '{LATER[1]}')")  # an ordinary tree
    acked.append(LATER)


def _total_accesses() -> int:
    db = _build(FaultPlan())
    acked: list[tuple] = []
    _run_workload(db, acked)
    assert db.table("t").indexed.height == 2  # packed: 2 leaves + root
    return db.enclave.untrusted.accesses


@pytest.mark.parametrize("mode", ["at", "after"])
def test_bulk_load_crash_point_sweep(mode: str) -> None:
    total = _total_accesses()
    stride = max(1, total // 25) if os.environ.get("FAULT_SWEEP") == "1" else 1
    outcomes = set()
    for k in range(0, total, stride):
        plan = FaultPlan()
        plan.crash_at(k) if mode == "at" else plan.crash_after(k)
        db = _build(plan)
        acked: list[tuple] = []
        with pytest.raises(SimulatedCrash):
            _run_workload(db, acked)
        committed = db.wal.committed_count
        # CREATE, then the load as one group commit, then the late insert.
        assert committed in (0, 1, 1 + len(LOAD), 2 + len(LOAD)), f"k={k}"
        assert len(acked) <= max(0, committed - 1), f"k={k}"
        outcomes.add(committed)

        recovered = ObliDB(cipher="null", seed=7)
        report = recovered.recover(db.wal)
        assert report.replayed == committed, f"k={k}"
        check = recovered.verify()
        assert check.ok, f"k={k}: {check.issues}"
        if committed:
            durable = LOAD * (committed > 1) + [LATER] * (committed > 1 + len(LOAD))
            assert sorted(recovered.sql("SELECT * FROM t").rows) == sorted(durable)
            index = recovered.table("t").indexed
            for key in {row[0] for row in acked}:
                assert index.search(key) == [
                    row for row in durable if row[0] == key
                ], f"k={k} key={key}"
    if stride == 1:
        # The sweep crosses the load: crashes before its group commit drop
        # all of it, crashes inside the sealing pass keep all of it.
        assert {1, 1 + len(LOAD)} <= outcomes
