"""A transient host failure at any untrusted access of a flat selection
whose statistics pass is Small's first pass.

A held selection (|R| ≤ S) reads its table once, inside compile, and keeps
its matches in oblivious memory until the runner answers over them; a
continued one hands the pass's full buffer to Small, whose passes stream
their buffers to the result.  A transient anywhere in either — every
access of every streamed pass included — must end like one anywhere else:
the statement is retried at its boundary (it mutated nothing), the
reservation the failed attempt took — the pass's buffer, the held rows,
Small's buffer — is back, no region it allocated is left behind, and the
retried statement returns the same rows.  The default run takes every access; ``FAULT_SWEEP=1`` (the CI job)
samples the sweep at a stride.
"""

from __future__ import annotations

import os

import pytest

from repro import FaultPlan, ObliDB, RetryPolicy
from repro.planner import SelectNode
from repro.storage import Schema, framed_size, int_column, str_column

SCHEMA = Schema([int_column("id"), int_column("v"), str_column("name", 8)])
ROWS = [(key, (key * 37) % 64, f"n{key}") for key in range(64)]
S = 8
#: name -> (SQL, (in_enclave, resumed, streamed))
SELECTIONS = {
    "held": ("SELECT * FROM t WHERE v < 6 ORDER BY v LIMIT 4", (True, False, False)),
    "continued": ("SELECT id, name FROM t WHERE v < 17", (False, True, True)),
}


def _build(plan: FaultPlan, sleeps: list[float]) -> ObliDB:
    db = ObliDB(
        oblivious_memory_bytes=10 * framed_size(SCHEMA),
        cipher="null",
        seed=7,
        fault_plan=plan,
        retry=RetryPolicy(attempts=3, sleep=sleeps.append),
    )
    db.create_table("t", SCHEMA, 64)
    db.insert_many("t", ROWS, fast=True)
    return db


@pytest.mark.parametrize("selection", sorted(SELECTIONS))
def test_transient_at_every_access_of_a_flat_selection(selection: str) -> None:
    sql, flags = SELECTIONS[selection]
    honest = _build(FaultPlan(), [])
    start = honest.enclave.untrusted.accesses
    expected = honest.sql(sql)
    total = honest.enclave.untrusted.accesses - start
    select = expected.plan.find(SelectNode)
    assert (select.in_enclave, select.resumed, select.streamed, select.buffer_rows) == (
        *flags,
        S,
    )
    # Held: the pass.  Continued (|R| = 17, three buffers): the pass and
    # Small's other two passes, streamed to the result.
    assert total == (64 if selection == "held" else 3 * 64)

    stride = max(1, total // 25) if os.environ.get("FAULT_SWEEP") == "1" else 1
    for offset in range(0, total, stride):
        plan, sleeps = FaultPlan(), []
        db = _build(plan, sleeps)
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
