"""Theorem 1's SIM for INSERT, UPDATE and DELETE.

Each case runs one write statement and checks its real trace against
:func:`simulate`, run on the plan, the public state after the statement
(the table's geometry), and the two trace sizes an index reveals:
the rows it rewrote and, for ``index_range``, the segment its lookup
returned.  The matrix covers a flat table's uniform passes and a
``METHOD both`` table's keyed (``index_range``) and non-key
(``index_linear``) writes, on the default index and on the paper's.
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro import ObliDB
from repro.analysis import PublicState, canonicalize, oram_regions_of, simulate
from repro.planner import AccessMethod
from repro.storage import Schema, StorageMethod, int_column, str_column

SCHEMA = Schema([int_column("k"), int_column("v"), str_column("s", 8)])

#: name -> (statement, access method, rows of the ``index_range`` segment).
#: The table holds keys 0..29 with ``v = (7 * k) % 30``.
WRITES = {
    "insert": ("INSERT INTO t VALUES (40, 1, 'new')", None, 0),
    "update-point": ("UPDATE t SET v = 1 WHERE k = 8", AccessMethod.INDEX_RANGE, 1),
    "update-miss": ("UPDATE t SET v = 1 WHERE k = 35", AccessMethod.INDEX_RANGE, 0),
    "update-range": (
        "UPDATE t SET s = 'x' WHERE k >= 3 AND k <= 9 AND v < 15",
        AccessMethod.INDEX_RANGE,
        7,
    ),
    "delete-range": ("DELETE FROM t WHERE k >= 3 AND k <= 6", AccessMethod.INDEX_RANGE, 4),
    "update-linear": ("UPDATE t SET s = 'y' WHERE v < 10", AccessMethod.INDEX_LINEAR, 0),
    "delete-linear": ("DELETE FROM t WHERE v >= 25", AccessMethod.INDEX_LINEAR, 0),
}

FLAT_WRITES = {
    "insert": "INSERT INTO t VALUES (40, 1, 'new')",
    "update": "UPDATE t SET v = 1 WHERE v < 15",
    "delete": "DELETE FROM t WHERE s = 's4'",
}


def build_database(method: StorageMethod, oram_kind: str) -> ObliDB:
    db = ObliDB(cipher="null", keep_trace_events=True, seed=3)
    db.create_table(
        "t", SCHEMA, 48, method=method, key_column="k", oram_kind=oram_kind
    )
    for k in range(30):
        db.insert("t", (k, (7 * k) % 30, f"s{k}"))
    return db


def run_write(db: ObliDB, sql: str):
    """The write's canonical trace and result."""
    db.enclave.trace.clear()
    result = db.sql(sql)
    return canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave)), result


@pytest.mark.parametrize("oram_kind", ["path", "paper"])
@pytest.mark.parametrize("name", list(WRITES))
def test_indexed_write_trace_equals_sim(name: str, oram_kind: str) -> None:
    sql, access_method, segment_rows = WRITES[name]
    db = build_database(StorageMethod.BOTH, oram_kind)
    trace, result = run_write(db, sql)
    assert result.plan.root.access_method is access_method
    public = PublicState.of(db)
    assert public.tables["t"].height == db.table("t").indexed.tree.height
    assert (public.tables["t"].treetop_levels == 0) is (oram_kind == "paper")
    sim = simulate(
        result.plan,
        public,
        affected=0 if access_method is None else result.affected,
        segment_rows=segment_rows,
    )
    assert sim.matches(trace)


@pytest.mark.parametrize("oram_kind", ["path", "paper"])
@pytest.mark.parametrize("name", list(FLAT_WRITES))
def test_flat_write_trace_equals_sim(name: str, oram_kind: str) -> None:
    db = build_database(StorageMethod.FLAT, oram_kind)
    trace, result = run_write(db, FLAT_WRITES[name])
    public = PublicState.of(db)
    assert result.plan.root.access_method is None
    assert public.tables["t"].key_column is None
    assert simulate(result.plan, public).matches(trace)


@functools.cache
def _range_update():
    """(plan, public state, trace sizes) of a range UPDATE."""
    # The paper's index: every level is in the ORAM, so the height shows.
    db = build_database(StorageMethod.BOTH, "paper")
    sql, _, segment_rows = WRITES["update-range"]
    _, result = run_write(db, sql)
    sizes = {"affected": result.affected, "segment_rows": segment_rows}
    return result.plan, PublicState.of(db), sizes


@pytest.mark.parametrize(
    "change", [{"affected": 1}, {"segment_rows": 6}, {"height": 1}]
)
def test_sim_reads_every_trace_size(change: dict) -> None:
    """A trace size off by one, or another height, gives another trace: the
    index's bursts are in the leakage, not absorbed by padding."""
    plan, public, sizes = _range_update()
    facts = public.tables["t"]
    assert sizes["affected"] > 1 and facts.height == 2
    height = change.get("height", facts.height)
    changed = replace(public, tables={"t": replace(facts, height=height)})
    resized = {name: change.get(name, size) for name, size in sizes.items()}
    assert not simulate(plan, changed, **resized).matches(
        simulate(plan, public, **sizes)
    )


#: Key-assigning UPDATEs, grouped by the trace sizes they share: every
#: statement of a group has one ``cache_key``, and they differ only in
#: whether each affected row's new key equals its old one (equal, changed,
#: or mixed across a range).  name -> (statements as (SQL, new key), the
#: keys they affect, rows of the ``index_range`` segment).
KEY_UPDATES = {
    "point": (
        (("UPDATE t SET k = 5 WHERE k = 5", 5), ("UPDATE t SET k = 40 WHERE k = 5", 40)),
        {5},
        1,
    ),
    "range": (
        (
            ("UPDATE t SET k = 40 WHERE k >= 3 AND k <= 5", 40),
            ("UPDATE t SET k = 4 WHERE k >= 3 AND k <= 5", 4),
            ("UPDATE t SET k = 3 WHERE k >= 3 AND k <= 5", 3),
        ),
        {3, 4, 5},
        3,
    ),
    "range-filtered": (
        (
            ("UPDATE t SET k = 4 WHERE k >= 3 AND k <= 5 AND v = 28", 4),
            ("UPDATE t SET k = 44 WHERE k >= 3 AND k <= 5 AND v = 28", 44),
        ),
        {4},
        3,
    ),
}


@pytest.mark.parametrize("oram_kind", ["path", "paper"])
@pytest.mark.parametrize("name", list(KEY_UPDATES))
def test_key_assigning_update_leaks_no_literal(name: str, oram_kind: str) -> None:
    """Whether a row keeps its key is hidden: every affected row is deleted
    and re-inserted, so one plan gives one trace, SIM's, and the rows are
    the UPDATE's."""
    statements, affected, segment_rows = KEY_UPDATES[name]
    traces, keys = [], set()
    for sql, new_key in statements:
        db = build_database(StorageMethod.BOTH, oram_kind)
        trace, result = run_write(db, sql)
        traces.append(trace)
        keys.add(result.plan.cache_key)
        assert result.affected == len(affected), sql
        node = result.plan.root
        assert (node.access_method, node.assigns_key) == (AccessMethod.INDEX_RANGE, True)
        sim = simulate(
            result.plan,
            PublicState.of(db),
            affected=len(affected),
            segment_rows=segment_rows,
        )
        assert sim.matches(trace), sql
        expected = sorted(
            (new_key if k in affected else k, (7 * k) % 30, f"s{k}") for k in range(30)
        )
        assert sorted(db.table("t").indexed.rows()) == expected, sql
        assert sorted(db.sql("SELECT * FROM t WHERE v >= 0").rows) == expected, sql
    assert len(keys) == 1
    assert all(trace.matches(traces[0]) for trace in traces)


def test_only_a_key_assigning_update_changes_the_plan() -> None:
    """``assigns_key`` is read off the SET list: it is in ``cache_key`` and
    ``EXPLAIN``, and a non-key UPDATE keeps its in-place plan."""
    db = build_database(StorageMethod.BOTH, "path")
    keyed = db.explain("UPDATE t SET k = 5 WHERE k = 5")
    plain = db.explain("UPDATE t SET v = 5 WHERE k = 5")
    assert (keyed.root.assigns_key, plain.root.assigns_key) == (True, False)
    assert keyed.cache_key != plain.cache_key
    assert "assigns_key=True" in keyed.describe()
    assert "assigns_key" not in plain.describe()
