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
  statement is retried.

``FAULT_SWEEP=1`` (the CI job) samples the sweep at a stride.
"""

from __future__ import annotations

import os
import random

import pytest

from repro import FaultPlan, ObliDB, RetryPolicy
from repro.enclave import Enclave, ORAMError, TransientStorageError
from repro.faults import FaultyUntrustedMemory
from repro.oram import PathORAM
from repro.storage import Schema, StorageMethod, int_column, str_column

SCHEMA = Schema([int_column("id"), str_column("name", 8)])
ROWS = [(key, f"n{key}") for key in range(40)]
LOOKUPS = {
    "point": ("SELECT * FROM t WHERE id = 5", [ROWS[5]]),
    "range": ("SELECT * FROM t WHERE id >= 5 AND id <= 9", ROWS[5:10]),
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

    stride = max(1, total // 25) if os.environ.get("FAULT_SWEEP") == "1" else 1
    absorbed = retried = 0
    for offset in range(0, total, stride):
        plan, sleeps = FaultPlan(), []
        db = _build(plan, oram_kind, sleeps)
        assert db.enclave.untrusted.accesses == start
        plan.transient_at(start + offset)
        assert db.sql(sql).rows == expected, offset
        assert plan.take_transient(start + offset) is False  # it fired
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
    struck = db.enclave.untrusted.accesses + first_write + 1  # one bucket landed
    plan.transient_at(struck).transient_at(struck)
    with pytest.raises(ORAMError, match="failed twice"):
        db.sql(sql)
    assert sleeps == []

    recovered = ObliDB(cipher="null")
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
