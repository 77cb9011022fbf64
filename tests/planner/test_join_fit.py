"""Every join plan the planner emits runs: one reservation per algorithm.

``plan_join`` decides which algorithms can run from the oblivious memory
each operator reserves — the ``*_reservation`` functions of
:mod:`repro.operators.join`, which the operators call too — so a plan never
fails on ``ObliviousMemoryError`` after admission.  A forced algorithm that
does not fit raises :class:`PlannerError` at compile, before any untrusted
access.
"""

from __future__ import annotations

import functools
import random

import pytest

from repro import ObliDB
from repro.enclave import PlannerError
from repro.operators.join import (
    ZERO_OM_RESERVATION,
    hash_join_reservation,
    joined_schema,
    opaque_join_reservation,
)
from repro.planner import JoinAlgorithm, JoinNode, plan_join
from repro.planner import compile as plan_compiler
from repro.storage import Schema, framed_size, int_column, str_column

USERS = Schema([int_column("uid"), str_column("name", 8)])
VISITS = Schema([int_column("vid"), int_column("uid"), int_column("day")])
#: One left row in the hash table.
HASH_ROW = framed_size(USERS) + 16


def build(users: int, visits: int, budget: int, oram_kind: str = "path") -> ObliDB:
    db = ObliDB(cipher="null", oblivious_memory_bytes=budget, seed=9)
    db.create_table("users", USERS, users, oram_kind=oram_kind)
    db.create_table("visits", VISITS, visits, oram_kind=oram_kind)
    rng = random.Random(9)
    db.insert_many("users", [(u, f"u{u}") for u in range(users)], fast=True)
    db.insert_many(
        "visits",
        [(v, rng.randrange(users), rng.randrange(30)) for v in range(visits)],
        fast=True,
    )
    return db


def reservation(node: JoinNode, db: ObliDB, emitted: Schema | None) -> int:
    """What the node's operator reserves, by the planner's function."""
    left, right = db.table("users").schema, db.table("visits").schema
    if node.algorithm is JoinAlgorithm.HASH:
        held = emitted if node.in_enclave else None
        return hash_join_reservation(left, node.t1, node.t2, node.oblivious_bytes, held).nbytes
    if node.algorithm is JoinAlgorithm.OPAQUE:
        return opaque_join_reservation(
            left, right, node.t1, node.t2, node.oblivious_bytes
        ).nbytes
    return ZERO_OM_RESERVATION.nbytes


def test_the_narrow_left_table_at_66_bytes_runs() -> None:
    """Two hash-table rows fit in 66 bytes but the Opaque sort's pair of
    98-byte union chunks does not: the planner used to pick Opaque by cost
    and the statement failed after admission."""
    assert HASH_ROW == 33
    db = build(512, 512, 2 * HASH_ROW)
    sql = "SELECT COUNT(*) FROM users JOIN visits ON uid = uid"
    join = db.explain(sql).find(JoinNode)
    assert (join.algorithm, join.oblivious_rows) == (JoinAlgorithm.HASH, 2)
    assert db.sql(sql).rows == [(512,)]
    assert db.enclave.oblivious.free_bytes == 2 * HASH_ROW


@pytest.mark.parametrize("force", [JoinAlgorithm.HASH, JoinAlgorithm.OPAQUE])
def test_a_forced_algorithm_that_does_not_fit_fails_at_compile(
    force: JoinAlgorithm, monkeypatch
) -> None:
    monkeypatch.setattr(
        plan_compiler, "plan_join", functools.partial(plan_join, force=force)
    )
    db = build(64, 64, HASH_ROW - 1)
    cost = db.enclave.cost.snapshot()
    regions = db.enclave.untrusted.region_names()
    with pytest.raises(PlannerError, match=f"{force.value} join does not fit"):
        db.sql("SELECT * FROM users JOIN visits ON uid = uid")
    assert db.enclave.cost.snapshot() == cost
    assert db.enclave.untrusted.region_names() == regions
    assert db.enclave.oblivious.free_bytes == HASH_ROW - 1


#: Budgets from no room at all to the whole held join, over 40 × 48 rows.
BUDGETS = [0, HASH_ROW - 1, HASH_ROW, 66, 2 * HASH_ROW + 31, 150, 400, 1 << 10,
           3 << 10, 40 * HASH_ROW, 40 * HASH_ROW + 48 * 17, 1 << 20]


@pytest.mark.parametrize("budget", BUDGETS)
@pytest.mark.parametrize(
    "columns", ["*", "name, day"], ids=["star", "columns"]
)
def test_the_planned_reservation_is_what_runs(budget: int, columns: str) -> None:
    """At every budget the plan runs, its operator's peak reservation is the
    planner's figure, and all of it comes back."""
    db = build(40, 48, budget)
    sql = f"SELECT {columns} FROM users JOIN visits ON uid = uid"
    account = db.enclave.oblivious
    account.peak_bytes = 0
    result = db.sql(sql)
    join = result.plan.find(JoinNode)
    emitted = joined_schema(USERS, VISITS).project(join.columns)
    assert len(result.rows) == 48
    assert account.peak_bytes == reservation(join, db, emitted) <= budget
    assert account.free_bytes == budget
