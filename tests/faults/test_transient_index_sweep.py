"""A transient host failure at any untrusted access of an index lookup.

An ORAM *read* writes its path back, so a ``SELECT`` through the index is a
write pass as far as the host is concerned: a statement-boundary retry that
only watches table revisions would re-run a lookup whose path write was cut
short, over buckets sealed under revisions nothing committed.  Three rules
make the retry safe, and the sweep below holds them at every access index:

* ``PathORAM._access`` commits its enclave state (stash, position map,
  treetop, ledger) only after the path is written back, so a failed read
  phase leaves the store exactly as it was;
* a transient *inside* the write-back is absorbed by the access itself —
  the sealed path is re-issued once — and a second one surfaces as a typed,
  un-retried ``ORAMError``;
* the scratch regions a failed attempt allocated are freed before the
  statement is retried, and the oblivious memory it reserved for a held
  segment is released with it (``free_bytes`` is back where it was after
  every swept statement, retried or surfaced).

The B+ tree's resident interior is enclave state like the stash and the
treetop: a lookup reads it and changes nothing, so a retried ``SELECT`` finds
it exactly as the failed attempt left it; a mutation changes it in place, so
a transient in the middle of one surfaces (the table's revision has moved)
and the log rebuilds it, as it does after a kill.

``FAULT_SWEEP=1`` (the CI job) samples the sweep at a stride.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import FaultPlan, ObliDB, RetryPolicy, SimulatedCrash
from repro.enclave import Enclave, ORAMError, TransientStorageError
from repro.engine.database import _insert_statement_sql
from repro.faults import FaultyUntrustedMemory
from repro.oram import PathORAM
from repro.storage import Schema, StorageMethod, int_column, str_column

SCHEMA = Schema([int_column("id"), str_column("name", 8)])
ROWS = [(key, f"n{key}") for key in range(40)]
LOOKUPS = {
    "point": ("SELECT * FROM t WHERE id = 5", [ROWS[5]]),
    "range": ("SELECT * FROM t WHERE id >= 5 AND id <= 9", ROWS[5:10]),
}


def _resident(db: ObliDB) -> dict:
    """The resident levels of ``t``'s index, node by node."""
    tree = db.table("t").indexed.tree
    return {
        node_id: (list(node.keys), list(node.children))
        for node_id, node in tree._resident.items()
    }


def _build(plan: FaultPlan, oram_kind: str, sleeps: list[float]) -> ObliDB:
    db = ObliDB(
        cipher="null",
        seed=7,
        fault_plan=plan,
        retry=RetryPolicy(attempts=3, sleep=sleeps.append),
    )
    db.create_table(
        "t", SCHEMA, 100, method=StorageMethod.BOTH, key_column="id", oram_kind=oram_kind
    )
    db.insert_many("t", ROWS)
    return db


@pytest.mark.parametrize("lookup", sorted(LOOKUPS))
@pytest.mark.parametrize("oram_kind,k", [("path", 5), ("paper", 0)])
def test_transient_at_every_access_of_an_index_lookup(
    oram_kind: str, k: int, lookup: str
) -> None:
    sql, expected = LOOKUPS[lookup]
    honest = _build(FaultPlan(), oram_kind, [])
    oram = honest.table("t").indexed.oram
    assert (oram.levels, oram.treetop_levels) == (7, k)
    start = honest.enclave.untrusted.accesses
    assert honest.sql(sql).rows == expected
    total = honest.enclave.untrusted.accesses - start
    resident = _resident(honest)
    assert len(resident) == (oram_kind == "path")  # the root, over six leaves

    stride = max(1, total // 25) if os.environ.get("FAULT_SWEEP") == "1" else 1
    absorbed = retried = 0
    for offset in range(0, total, stride):
        plan, sleeps = FaultPlan(), []
        db = _build(plan, oram_kind, sleeps)
        assert db.enclave.untrusted.accesses == start
        free = db.enclave.oblivious.free_bytes
        plan.transient_at(start + offset)
        assert db.sql(sql).rows == expected, offset
        assert plan.take_transient(start + offset) is False  # it fired
        # The held segment's reservation went with the attempt that made it.
        assert db.enclave.oblivious.free_bytes == free, offset
        assert _resident(db) == resident, offset
        index = db.table("t").indexed
        for row in ROWS:
            assert index.point_lookup(row[0]) == [row], (offset, row)
        check = db.verify()
        assert check.ok, (offset, check.issues)
        # One transient costs at most one statement retry — and none when it
        # struck a path write-back, which the access finishes itself.
        assert len(sleeps) <= 1, offset
        retried += len(sleeps)
        absorbed += not sleeps
    if stride == 1:
        assert absorbed and retried


def test_two_transients_in_one_write_back_surface_typed_and_recover() -> None:
    """The second failure of one path write is not retried by anyone: the
    statement ends in ``ORAMError``, and the log rebuilds a clean database."""
    sql, expected = LOOKUPS["point"]

    def build(plan: FaultPlan, sleeps: list[float]) -> ObliDB:
        db = ObliDB(
            cipher="null",
            seed=7,
            wal=True,
            keep_trace_events=True,
            fault_plan=plan,
            retry=RetryPolicy(attempts=3, sleep=sleeps.append),
        )
        db.sql("CREATE TABLE t (id INT, name STR(8)) CAPACITY 100 METHOD both KEY id")
        db.insert_many("t", ROWS)
        return db

    honest = build(FaultPlan(), [])
    start = len(honest.enclave.trace.events)
    honest.sql(sql)
    first_write = next(
        offset
        for offset, event in enumerate(honest.enclave.trace.events[start:])
        if event.op == "W" and event.region == honest.table("t").indexed.oram.region_name
    )

    plan, sleeps = FaultPlan(), []
    db = build(plan, sleeps)
    free = db.enclave.oblivious.free_bytes
    struck = db.enclave.untrusted.accesses + first_write + 1  # one bucket landed
    plan.transient_at(struck).transient_at(struck)
    with pytest.raises(ORAMError, match="failed twice"):
        db.sql(sql)
    assert sleeps == []
    assert db.enclave.oblivious.free_bytes == free

    recovered = ObliDB(cipher="null", seed=7)
    recovered.recover(db.wal)
    check = recovered.verify()
    assert check.ok, check.issues
    assert recovered.sql(sql).rows == expected
    assert sorted(recovered.sql("SELECT * FROM t").rows) == ROWS


@pytest.mark.parametrize("treetop_levels", [None, 0])
def test_access_is_all_or_nothing_in_enclave_state(treetop_levels: int | None) -> None:
    """A transient in the read phase leaves stash, position map and treetop
    untouched; one in the write phase never escapes the access."""

    def build(plan: FaultPlan) -> tuple[Enclave, PathORAM]:
        enclave = Enclave(
            cipher="null",
            untrusted_factory=lambda trace, cost: FaultyUntrustedMemory(
                trace, cost, plan
            ),
        )
        oram = PathORAM(
            enclave, 64, 16, rng=random.Random(3), treetop_levels=treetop_levels
        )
        for block in range(64):
            oram.write(block, bytes([block]) * 4)
        return enclave, oram

    enclave, oram = build(FaultPlan())
    per_access = 2 * (oram.levels - oram.treetop_levels)
    for offset in range(per_access):
        plan = FaultPlan()
        enclave, oram = build(plan)
        plan.transient_at(enclave.untrusted.accesses + offset)
        before = (list(oram._position), dict(oram._stash), list(oram._treetop))
        try:
            assert oram.read(9) == bytes([9]) * 4
            assert offset >= per_access // 2  # absorbed: the write-back
        except TransientStorageError:
            assert offset < per_access // 2  # surfaced: the read phase
            assert (oram._position, oram._stash, oram._treetop) == before
            assert oram.read(9) == bytes([9]) * 4
        for block in range(64):
            assert oram.read(block) == bytes([block]) * 4


# ----------------------------------------------------------------------
# Index mutations: a transient surfaces, a kill replays
# ----------------------------------------------------------------------
CREATE = "CREATE TABLE t (id INT, name STR(8)) CAPACITY 100 METHOD both KEY id"
#: After the 40-row load: leaf splits, an interior split under the root (a
#: new resident node), keyed writes, and deletes that merge leaves.
MUTATIONS = (
    [f"INSERT INTO t VALUES ({key}, 'm{key}')" for key in range(100, 124)]
    + ["UPDATE t SET name = 'upd' WHERE id = 7", "UPDATE t SET name = 'rng' WHERE id >= 20 AND id < 23"]
    + [f"DELETE FROM t WHERE id = {key}" for key in range(0, 30, 2)]
)


def _mutating_db(plan: FaultPlan, retry: RetryPolicy | None) -> ObliDB:
    db = ObliDB(cipher="null", seed=7, wal=True, fault_plan=plan, retry=retry)
    db.sql(CREATE)
    db.insert_many("t", ROWS)
    return db


#: Every statement in WAL order; the load is logged one INSERT a row, and
#: replayed that way.
LOGGED = [CREATE] + [_insert_statement_sql("t", row) for row in ROWS] + MUTATIONS


_references: dict[tuple, tuple] = {}


def _reference(statements: list[str]) -> tuple:
    """(rows, resident levels, index rows) of a database that ran exactly
    ``statements``, one at a time, as replay does."""
    key = tuple(statements)
    if key not in _references:
        db = ObliDB(cipher="null", seed=7)
        for sql in statements:
            db.sql(sql)
        _references[key] = (
            sorted(db.sql("SELECT * FROM t").rows),
            _resident(db),
            db.table("t").indexed.rows(),
        )
    return _references[key]


def _recovered(crashed: ObliDB, attempted: list[str], label) -> None:
    """Recover ``crashed``, which got as far as ``attempted`` of the
    mutations, and hold it to a database that ran the committed log."""
    committed = crashed.wal.committed_count
    assert 1 + len(ROWS) <= committed <= 1 + len(ROWS) + len(attempted), label
    recovered = ObliDB(cipher="null", seed=7)
    assert recovered.recover(crashed.wal).replayed == committed, label
    check = recovered.verify()
    assert check.ok, (label, check.issues)
    rows, resident, index_rows = _reference(
        (LOGGED[: 1 + len(ROWS)] + attempted)[:committed]
    )
    assert sorted(recovered.sql("SELECT * FROM t").rows) == rows, label
    # The resident levels are rebuilt from the log alone: the same nodes
    # the reference grew, reachable for every row.
    assert _resident(recovered) == resident, label
    assert recovered.table("t").indexed.rows() == index_rows, label


def test_mutations_grow_and_shrink_the_resident_levels() -> None:
    db = _mutating_db(FaultPlan(), None)
    tree = db.table("t").indexed.tree
    before = tree.resident_nodes
    for sql in MUTATIONS[:24]:
        db.sql(sql)
    assert tree.resident_nodes > before  # an interior node split
    for sql in MUTATIONS[24:]:
        db.sql(sql)
    assert (tree.height, tree.oram_levels) == (3, 1)


@pytest.mark.parametrize("mode", ["at", "after"])
def test_kill_during_index_mutations_replays_the_resident_levels(mode: str) -> None:
    honest = _mutating_db(FaultPlan(), None)
    start = honest.enclave.untrusted.accesses
    for sql in MUTATIONS:
        honest.sql(sql)
    total = honest.enclave.untrusted.accesses - start
    stride = max(1, total // (25 if os.environ.get("FAULT_SWEEP") == "1" else 40))
    for offset in range(0, total, stride):
        plan = FaultPlan()
        db = _mutating_db(plan, None)
        assert db.enclave.untrusted.accesses == start
        plan.crash_at(start + offset) if mode == "at" else plan.crash_after(start + offset)
        with pytest.raises(SimulatedCrash):
            for sql in MUTATIONS:
                db.sql(sql)
        _recovered(db, MUTATIONS, (mode, offset))


def test_transient_inside_an_index_mutation_surfaces_or_is_absorbed() -> None:
    """At every untrusted access of one INSERT that splits a leaf and of one
    keyed DELETE: the statement either completes — the transient hit before
    anything changed and was retried, or hit a path write-back and was
    absorbed — or surfaces un-retried once storage has moved; either way the
    log rebuilds the tree, resident levels included."""
    prefix = MUTATIONS[:5]
    for sql in ("INSERT INTO t VALUES (105, 'split')", "DELETE FROM t WHERE id = 12"):
        honest = _mutating_db(FaultPlan(), None)
        for earlier in prefix:
            honest.sql(earlier)
        start = honest.enclave.untrusted.accesses
        honest.sql(sql)
        total = honest.enclave.untrusted.accesses - start
        stride = max(1, total // 25) if os.environ.get("FAULT_SWEEP") == "1" else 5
        surfaced = completed = 0
        for offset in range(0, total, stride):
            plan, sleeps = FaultPlan(), []
            db = _mutating_db(plan, RetryPolicy(attempts=3, sleep=sleeps.append))
            for earlier in prefix:
                db.sql(earlier)
            assert db.enclave.untrusted.accesses == start
            free = db.enclave.oblivious.free_bytes
            plan.transient_at(start + offset)
            try:
                db.sql(sql)
            except TransientStorageError:
                surfaced += 1
                assert sleeps == [], offset  # storage had moved: no retry
            else:
                completed += 1
                assert _resident(db) == _resident(honest), offset
                assert db.verify().ok, offset
            assert db.enclave.oblivious.free_bytes == free, offset
            # Logged before it ran, so the log carries the statement whole
            # (unless the transient struck the log append itself).
            _recovered(db, prefix + [sql], (sql, offset))
        assert surfaced and completed
