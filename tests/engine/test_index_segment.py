"""Count and law pins for index segments answered in the enclave.

An index ``SELECT`` looks up its segment T' through the ORAM at compile time.
When ``segment_rows = max(1, |T'|)`` framed rows fit free oblivious memory
and the index is not the paper's (``oram_kind="paper"``), the looked-up rows
are the statement's input where they are: ``IndexLookupNode.in_enclave`` is
set, no ``SelectNode`` sits above it, and every statement shape — residual
``WHERE``, select list, ``ORDER BY … LIMIT``, aggregates, ``GROUP BY`` — runs
over the held rows.  Otherwise the segment spills to a flat scratch and the
flat-table selection runs over it, as the paper describes.

**The law.**  The in-enclave trace is the spill trace with every access to a
non-ORAM region deleted, event for event.  With s = ``segment_rows``,
t = |T'|, r = |R| the rows the ``WHERE`` keeps, B the Small buffer and
g' = max(1, g) for g groups, the deleted transfers are

* a selection, with or without ``ORDER BY`` (Small; the sort runs in the
  enclave): ``s·(1 + ⌈r/B⌉) + r`` reads and ``2s + 2r`` writes;
* the same with r = 0 (Hash into one 5-slot chain, compacted to 1 row):
  ``12s + 30`` reads and ``12s + 22`` writes;
* an aggregate: ``s`` reads and ``2s`` writes;
* a ``GROUP BY``: ``s + g'`` reads and ``2s + 2g'`` writes.

The scratch and a group-by output are each written twice over their whole
capacity (initialised, then filled with real rows and dummies), so t and g
show only through s and g'.  So a hit loses 3 R + 4 W and a miss 42 R +
34 W.  These counts are pinned on ``"paper"``, whose statements keep them at
the default budget.  On the spill path of the default kind (a budget
squeezed below the segment) the flat selection over the scratch is itself
held in the enclave when its statistics pass keeps every match (r ≤ B,
``SelectNode.in_enclave``): a selection then loses what an aggregate does,
``s`` reads and ``2s`` writes.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro import ObliDB
from repro.enclave import ObliDBError
from repro.planner import (
    AggregateNode,
    GroupByNode,
    IndexLookupNode,
    SelectNode,
    SortNode,
)
from repro.storage import Schema, StorageMethod, int_column, str_column
from repro.storage.rows import framed_size

SCHEMA = Schema([int_column("id"), int_column("grp"), str_column("pad", 24)])
ROWS = [(key, key % 3, f"row-{key}") for key in range(1024)]
FRAME = framed_size(SCHEMA)


def _removed_selection(s: int, r: int, select: SelectNode) -> tuple[int, int]:
    if select.in_enclave:
        return s, 2 * s
    if r == 0:
        return 12 * s + 30, 12 * s + 22
    return s * (1 + math.ceil(r / select.buffer_rows)) + r, 2 * s + 2 * r


def _removed_aggregate(s: int, r: int, select: SelectNode | None) -> tuple[int, int]:
    return s, 2 * s


def _removed_group_by(g: int):
    def removed(s: int, r: int, select: SelectNode | None) -> tuple[int, int]:
        return s + max(1, g), 2 * s + 2 * max(1, g)

    return removed


#: name -> (SQL, |T'|, |R|, closed form of the deleted transfers)
SHAPES = {
    "hit": ("SELECT * FROM t WHERE id = 5", 1, 1, _removed_selection),
    "miss": ("SELECT * FROM t WHERE id = 4096", 0, 0, _removed_selection),
    "residual": (
        "SELECT * FROM t WHERE id >= 10 AND id <= 18 AND grp != 1",
        9, 6, _removed_selection,
    ),
    "residual_empty": (
        "SELECT id FROM t WHERE id >= 10 AND id <= 18 AND grp > 5",
        9, 0, _removed_selection,
    ),
    "order_limit": (
        "SELECT id FROM t WHERE id >= 10 AND id <= 18 AND grp != 0"
        " ORDER BY pad DESC LIMIT 3",
        9, 6, _removed_selection,
    ),
    "count": (
        "SELECT COUNT(*), SUM(grp) FROM t WHERE id >= 10 AND id <= 18 AND grp != 1",
        9, 6, _removed_aggregate,
    ),
    "group_by": (
        "SELECT grp, COUNT(*), MAX(id) FROM t WHERE id >= 10 AND id <= 18 GROUP BY grp",
        9, 9, _removed_group_by(3),
    ),
}


def _database(oram_kind: str = "path") -> ObliDB:
    db = ObliDB(cipher="null", seed=7, keep_trace_events=True)
    db.create_table(
        "t", SCHEMA, 1024, method=StorageMethod.BOTH, key_column="id", oram_kind=oram_kind
    )
    rows = list(ROWS)
    random.Random(3).shuffle(rows)
    db.insert_many("t", rows)
    return db


def _squeeze(db: ObliDB, free: int) -> None:
    """Leave exactly ``free`` bytes of oblivious memory."""
    db.enclave.oblivious.allocate(db.enclave.oblivious.free_bytes - free)


def _run(db: ObliDB, sql: str):
    """The result, its trace's events and its non-ORAM (reads, writes)."""
    start = len(db.enclave.trace.events)
    result = db.sql(sql)
    events = db.enclave.trace.events[start:]
    oram = db.table("t").indexed.oram.region_name
    flat = Counter(event.op for event in events if event.region != oram)
    return result, events, (flat["R"], flat["W"])


def _segment_rows(t: int) -> int:
    return max(1, t)


#: A one-row hit has no spilling twin on the default kind: a budget one byte
#: short of its segment is one byte short of Small's one-row buffer too.  Its
#: deleted transfers are pinned on ``"paper"``.
@pytest.mark.parametrize("shape", sorted(set(SHAPES) - {"hit"}))
def test_in_enclave_trace_is_the_spill_trace_without_flat_accesses(shape: str) -> None:
    sql, t, r, removed = SHAPES[shape]
    s = _segment_rows(t)
    held, spilled = _database(), _database()
    _squeeze(spilled, s * FRAME - 1)
    account = held.enclave.oblivious
    free, regions = account.free_bytes, held.enclave.untrusted.region_names()

    result, events, flat = _run(held, sql)
    assert flat == (0, 0)
    assert account.free_bytes == free
    assert held.enclave.untrusted.region_names() == regions
    lookup = result.plan.find(IndexLookupNode)
    assert (lookup.segment_rows, lookup.in_enclave) == (s, True)
    assert result.plan.find(SelectNode) is None

    reference, reference_events, reference_flat = _run(spilled, sql)
    assert reference.plan.find(IndexLookupNode).in_enclave is False
    assert reference.rows == result.rows
    oram = spilled.table("t").indexed.oram.region_name
    assert [event for event in reference_events if event.region == oram] == events
    assert reference_flat == removed(s, r, reference.plan.find(SelectNode))
    # The counters move by exactly the deleted transfers.
    assert result.cost["oram_accesses"] == reference.cost["oram_accesses"]
    assert (result.cost["untrusted_reads"], result.cost["untrusted_writes"]) == (
        reference.cost["untrusted_reads"] - reference_flat[0],
        reference.cost["untrusted_writes"] - reference_flat[1],
    )


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_paper_index_keeps_the_flat_path_and_its_counts(shape: str) -> None:
    sql, t, r, removed = SHAPES[shape]
    db = _database("paper")
    free = db.enclave.oblivious.free_bytes
    result, _, flat = _run(db, sql)
    assert result.plan.find(IndexLookupNode).in_enclave is False
    assert flat == removed(_segment_rows(t), r, result.plan.find(SelectNode))
    assert db.enclave.oblivious.free_bytes == free


def test_hit_and_miss_counts() -> None:
    """The two ends of ``point_lookup``: a hit is 3 R + 4 W on the flat path,
    a miss 42 R + 34 W; in the enclave both are 0."""
    for oram_kind, hit, miss in (("path", (0, 0), (0, 0)), ("paper", (3, 4), (42, 34))):
        db = _database(oram_kind)
        assert _run(db, SHAPES["hit"][0])[2] == hit
        assert _run(db, SHAPES["miss"][0])[2] == miss


def test_shapes_over_held_rows() -> None:
    db = _database()
    assert db.sql(SHAPES["order_limit"][0]).rows == [(17,), (16,), (14,)]
    assert db.sql(SHAPES["count"][0]).rows == [(6, 6.0)]
    assert db.sql(SHAPES["group_by"][0]).rows == [
        (0, 3.0, 18.0), (1, 3.0, 16.0), (2, 3.0, 17.0)
    ]
    plan = db.sql(SHAPES["order_limit"][0]).plan
    sort = plan.find(SortNode)
    assert (sort.rows, sort.in_enclave) == (9, True)
    assert isinstance(sort.source, IndexLookupNode)
    assert isinstance(db.sql(SHAPES["count"][0]).plan.root, AggregateNode)
    group = db.sql(SHAPES["group_by"][0]).plan.root
    assert isinstance(group, GroupByNode)
    assert group.output_rows is None  # the groups never left the enclave


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_explain_is_the_executed_plan_and_touches_only_the_oram(shape: str) -> None:
    sql = SHAPES[shape][0]
    db = _database()
    account = db.enclave.oblivious
    free, regions = account.free_bytes, db.enclave.untrusted.region_names()
    start = len(db.enclave.trace.events)
    explained = db.explain(sql)
    oram = db.table("t").indexed.oram.region_name
    assert {event.region for event in db.enclave.trace.events[start:]} == {oram}
    assert account.free_bytes == free
    assert db.enclave.untrusted.region_names() == regions
    assert explained.find(IndexLookupNode).in_enclave is True
    assert explained.cache_key == db.sql(sql).plan.cache_key


@pytest.mark.parametrize(
    "sql, error",
    [
        ("SELECT nope FROM t WHERE id >= 3 AND id <= 6", "nope"),
        (
            "SELECT grp, COUNT(*) FROM t WHERE id >= 3 AND id <= 6 GROUP BY grp"
            " ORDER BY nope",
            "nope",
        ),
    ],
)
def test_a_statement_that_fails_in_the_runner_releases_the_segment(
    sql: str, error: str
) -> None:
    db = _database()
    free = db.enclave.oblivious.free_bytes
    with pytest.raises(ObliDBError, match=error):
        db.sql(sql)
    assert db.enclave.oblivious.free_bytes == free


def test_segment_on_the_fit_boundary() -> None:
    """The rule is ``segment_rows × framed_size ≤ free``: exactly fitting is
    in the enclave, one byte short spills."""
    sql = SHAPES["residual"][0]
    for free, in_enclave in ((9 * FRAME, True), (9 * FRAME - 1, False)):
        db = _database()
        _squeeze(db, free)
        result, _, flat = _run(db, sql)
        assert result.plan.find(IndexLookupNode).in_enclave is in_enclave
        assert (flat == (0, 0)) is in_enclave
        assert db.enclave.oblivious.free_bytes == free
        assert sorted(result.rows) == [row for row in ROWS[10:19] if row[1] != 1]


def test_group_by_needs_no_room_beside_the_segment() -> None:
    """A held segment is grouped by sorting its rows, with no group table:
    with no room left beyond the segment it is the same answer, still with
    no flat access."""
    sql = SHAPES["group_by"][0]
    expected = _database().sql(sql).rows
    db = _database()
    _squeeze(db, 9 * FRAME)
    result, _, flat = _run(db, sql)
    assert result.plan.find(IndexLookupNode).in_enclave is True
    assert flat == (0, 0)
    assert result.rows == expected
    assert db.enclave.oblivious.free_bytes == 9 * FRAME
