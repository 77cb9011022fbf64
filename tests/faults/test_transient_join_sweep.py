"""A transient host failure at any untrusted access of a held hash join.

A held join reads T1 once and T2 once per hash chunk, allocates no region
and keeps what it emits in oblivious memory until the runner answers over
it.  A transient anywhere in those reads must end like one anywhere else:
the statement is retried at its boundary (it mutated nothing), the
reservation the failed attempt took — the hash table and the held output —
is back, no region is left behind, and the retried statement returns the
same rows.  The default run takes every access; ``FAULT_SWEEP=1`` (the CI
job) samples the sweep at a stride.
"""

from __future__ import annotations

import os

import pytest

from repro import FaultPlan, ObliDB, RetryPolicy
from repro.planner import JoinNode
from repro.storage import Schema, framed_size, int_column, str_column

USERS = Schema([int_column("uid"), str_column("name", 8)])
VISITS = Schema([int_column("vid"), int_column("uid"), int_column("amount")])
HASH_ROW = framed_size(USERS) + 16
JOIN = "FROM users JOIN visits ON uid = uid"
#: name -> (users, visits, budget, SQL, hash chunks)
JOINS = {
    "one-chunk": (16, 24, 1 << 12, f"SELECT name, amount {JOIN} WHERE amount < 90", 1),
    "order-limit": (
        16,
        24,
        1 << 12,
        f"SELECT vid, name {JOIN} ORDER BY amount DESC LIMIT 5",
        1,
    ),
    "group-by": (16, 24, 1 << 12, f"SELECT name, COUNT(*) {JOIN} GROUP BY name", 1),
    # Four hash-table rows and three held frames of the left key.
    "four-chunks": (16, 3, 4 * HASH_ROW + 3 * 9, f"SELECT COUNT(*) {JOIN}", 4),
}


def _build(config: str, plan: FaultPlan, sleeps: list[float]) -> ObliDB:
    users, visits, budget, _, _ = JOINS[config]
    db = ObliDB(
        oblivious_memory_bytes=budget,
        cipher="null",
        seed=7,
        fault_plan=plan,
        retry=RetryPolicy(attempts=3, sleep=sleeps.append),
    )
    db.create_table("users", USERS, users)
    db.create_table("visits", VISITS, visits)
    db.insert_many("users", [(u, f"n{u % 5}") for u in range(users - 2)], fast=True)
    db.insert_many(
        "visits",
        [(v, (v * 7) % (users + 2), 10 * v) for v in range(visits)],
        fast=True,
    )
    return db


@pytest.mark.parametrize("config", sorted(JOINS))
def test_transient_at_every_access_of_a_held_join(config: str) -> None:
    users, visits, _, sql, chunks = JOINS[config]
    honest = _build(config, FaultPlan(), [])
    start = honest.enclave.untrusted.accesses
    expected = honest.sql(sql)
    total = honest.enclave.untrusted.accesses - start
    join = expected.plan.find(JoinNode)
    assert join.in_enclave and -(-join.t1 // join.oblivious_rows) == chunks
    assert total == users + chunks * visits  # the build, a read of T2 per chunk

    stride = max(1, total // 25) if os.environ.get("FAULT_SWEEP") == "1" else 1
    for offset in range(0, total, stride):
        plan, sleeps = FaultPlan(), []
        db = _build(config, plan, sleeps)
        assert db.enclave.untrusted.accesses == start
        free = db.enclave.oblivious.free_bytes
        regions = db.enclave.untrusted.region_names()
        plan.transient_at(start + offset)
        assert db.sql(sql).rows == expected.rows, offset
        assert plan.take_transient(start + offset) is False, offset  # it fired
        assert len(sleeps) == 1, offset  # one retry of the whole statement
        assert db.enclave.oblivious.free_bytes == free, offset
        assert db.enclave.untrusted.region_names() == regions, offset
        check = db.verify()
        assert check.ok, (offset, check.issues)
