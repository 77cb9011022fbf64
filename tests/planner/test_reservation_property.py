"""Generated property: a plan node's reservation is its capacity's frames.

For generated widths, capacities, live rows, storage methods and ORAM
kinds, and for free oblivious-memory budgets from none to a statement's
whole need, every SELECT either runs — no ``ObliviousMemoryError`` — or
raises ``PlannerError`` before it touches untrusted memory; oblivious
memory in use is back at its baseline after every statement, one that
raised included; and each in-enclave node — a held index segment, a held
selection, a held join, an in-enclave sort — reserves exactly
``framed_bytes(capacity, schema)`` of the rows it holds.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ObliDB
from repro.enclave import PlannerError
from repro.operators.join import joined_schema
from repro.planner import IndexLookupNode, JoinNode, SelectNode, SortNode
from repro.planner.compile import holds_segment
from repro.storage import Schema, int_column
from repro.storage.rows import framed_bytes
from repro.storage.schema import str_column
from repro.storage.table import StorageMethod

U = Schema([int_column("uk"), int_column("v")])

STATEMENTS = [
    "SELECT * FROM t WHERE k < {a}",
    "SELECT k, s FROM t WHERE k >= {a} AND k < {b}",
    "SELECT * FROM t WHERE k = {a}",
    "SELECT * FROM t WHERE g = 1 ORDER BY k DESC LIMIT 3",
    "SELECT s FROM t WHERE k < {b} ORDER BY s",
    "SELECT COUNT(*), SUM(g) FROM t WHERE k < {a}",
    "SELECT g, COUNT(*) FROM t WHERE k < {b} GROUP BY g",
    "SELECT * FROM t JOIN u ON k = uk WHERE v < {a}",
    "SELECT v, COUNT(*) FROM t JOIN u ON k = uk GROUP BY v",
    "SELECT s, v FROM t JOIN u ON k = uk ORDER BY v",
]


def expected_reservations(plan, t: Schema) -> list[int]:
    """``framed_bytes(capacity, schema)`` of every in-enclave node of an
    executed plan over ``t`` (and ``u``)."""
    reserved = []
    for node in plan.root.walk():
        if isinstance(node, (IndexLookupNode, SelectNode)) and node.in_enclave:
            reserved.append(framed_bytes(node.capacity, t))
        elif isinstance(node, JoinNode) and node.in_enclave:
            emitted = joined_schema(t, U).project(node.columns)
            reserved.append(framed_bytes(node.capacity, emitted))
        elif isinstance(node, SortNode) and node.in_enclave:
            if not holds_segment(node.source):  # held rows sort where they are
                join = plan.find(JoinNode)
                schema = t if join is None else joined_schema(t, U).project(join.columns)
                reserved.append(framed_bytes(node.capacity, schema))
    return reserved


@settings(max_examples=80, deadline=None)
@given(
    width=st.integers(1, 24),
    capacity=st.integers(1, 20),
    live=st.integers(0, 20),
    joined=st.integers(0, 12),
    method=st.sampled_from(list(StorageMethod)),
    oram_kind=st.sampled_from(["path", "paper"]),
    template=st.sampled_from(STATEMENTS),
    a=st.integers(0, 20),
    span=st.integers(0, 20),
)
def test_every_plan_runs_and_reserves_its_capacity(
    width, capacity, live, joined, method, oram_kind, template, a, span
) -> None:
    t = Schema([int_column("k"), int_column("g"), str_column("s", width)])
    db = ObliDB(cipher="null", seed=11)
    key = None if method is StorageMethod.FLAT else "k"
    db.create_table("t", t, capacity, method=method, key_column=key, oram_kind=oram_kind)
    db.insert_many("t", [(i, i % 3, str(i)[:width]) for i in range(min(live, capacity))])
    db.create_table("u", U, 12, oram_kind=oram_kind)
    db.insert_many("u", [(i % capacity, i) for i in range(joined)])
    sql = template.format(a=a, b=a + span)
    account = db.enclave.oblivious
    baseline = account.in_use_bytes

    # The statement's whole need, measured with the default budget free.
    account.peak_bytes = baseline
    db.sql(sql)
    assert account.in_use_bytes == baseline
    need = account.peak_bytes - baseline

    allocations: list[int] = []
    allocate = account.allocate

    def logged(nbytes: int) -> None:
        allocate(nbytes)
        allocations.append(nbytes)

    for budget in sorted({0, need // 2, max(0, need - 1), need}):
        squeeze = account.free_bytes - budget
        allocate(squeeze)
        allocations.clear()
        account.allocate = logged  # type: ignore[method-assign]
        events = len(db.enclave.trace)
        try:
            result = db.sql(sql)
        except PlannerError:
            assert len(db.enclave.trace) == events, sql  # refused before any access
        else:
            for nbytes in expected_reservations(result.plan, t):
                assert nbytes in allocations, (sql, budget, result.plan.describe())
        finally:
            del account.allocate
        assert account.in_use_bytes == baseline + squeeze, (sql, budget)
        account.release(squeeze)
