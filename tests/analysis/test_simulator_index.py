"""Theorem 1's SIM for a statement over an index lookup.

Each case runs a whole SQL statement whose ``WHERE`` pins a key interval
and checks its real trace against :func:`simulate`, run on the executed
plan and the public state — the index's geometry and the free
oblivious-memory budget — alone.  The matrix crosses the lookup (a point
hit, a point miss, ranges of 1, 10 and 50 rows) with where the segment goes
(held in the enclave, spilled by a budget one byte short of it, spilled by
the paper's index) and with the statement over it (a selection, one under
an ORDER BY, an aggregate, a GROUP BY).
"""

from __future__ import annotations

import functools
from dataclasses import replace

import pytest

from repro import ObliDB
from repro.analysis import PublicState, real_query_trace, simulate
from repro.planner import AccessMethod, IndexLookupNode, ScanNode, SelectNode, SortNode
from repro.storage import Schema, StorageMethod, framed_size, int_column

SCHEMA = Schema([int_column("k"), int_column("grp"), int_column("amount")])
FRAME = framed_size(SCHEMA)

#: name -> (key condition, |T'|); the table holds the even keys 0..398.
LOOKUPS = {
    "hit": ("k = 10", 1),
    "miss": ("k = 11", 0),
    "range-1": ("k >= 9 AND k <= 11", 1),
    "range-10": ("k >= 100 AND k <= 118", 10),
    "range-50": ("k >= 100 AND k <= 198", 50),
}

#: name -> (oram_kind, whether a budget one byte short of the segment is left)
PLACES = {"held": ("path", False), "squeezed": ("path", True), "paper": ("paper", False)}

STATEMENTS = {
    "select": "SELECT * FROM t WHERE {}",
    "order": "SELECT * FROM t WHERE {} ORDER BY amount DESC",
    "aggregate": "SELECT COUNT(*), SUM(amount) FROM t WHERE {}",
    "group-by": "SELECT grp, COUNT(*), MAX(amount) FROM t WHERE {} GROUP BY grp",
}


def build_database(oram_kind: str) -> ObliDB:
    db = ObliDB(cipher="null", keep_trace_events=True, seed=11)
    db.create_table(
        "t", SCHEMA, 256, method=StorageMethod.BOTH, key_column="k", oram_kind=oram_kind
    )
    db.insert_many("t", [(2 * i, i % 5, i) for i in range(200)], fast=True)
    return db


@pytest.fixture(scope="module")
def database():
    """Each database is built once for the module: the statements only read."""
    return functools.cache(build_database)


def run(database, place: str, lookup: str, statement: str):
    """(real trace, executed plan, public state) of one case."""
    oram_kind, squeezed = PLACES[place]
    db = database(oram_kind)
    condition, rows = LOOKUPS[lookup]
    account = db.enclave.oblivious
    squeeze = account.free_bytes - (max(1, rows) * FRAME - 1) if squeezed else 0
    account.allocate(squeeze)
    try:
        public = PublicState.of(db)
        real, plan = real_query_trace(db, STATEMENTS[statement].format(condition))
    finally:
        account.release(squeeze)
    return real, plan, public


#: A one-row segment has no spilling twin for a selection on the default
#: kind: a budget one byte short of it is one byte short of Small's one-row
#: buffer too.  The paper's index spills it.
NO_ROOM = {("squeezed", "hit", "select"), ("squeezed", "range-1", "select")}
CASES = [
    (place, lookup, statement)
    for place in PLACES
    for lookup in LOOKUPS
    for statement in STATEMENTS
    if (place, lookup, statement) not in NO_ROOM
]


@pytest.mark.parametrize("place, lookup, statement", CASES)
def test_real_equals_sim(database, place: str, lookup: str, statement: str) -> None:
    real, plan, public = run(database, place, lookup, statement)
    node = plan.find(IndexLookupNode)
    assert node.segment_rows == max(1, LOOKUPS[lookup][1])
    assert node.in_enclave is (place == "held")
    assert (public.tables["t"].treetop_levels == 0) is (place == "paper")
    if statement in ("select", "order") and place != "held":
        # A squeezed segment of more rows than Small's buffer streams,
        # unless an ORDER BY sits above it.
        streamed = statement == "select" and place == "squeezed" and LOOKUPS[lookup][1] > 1
        assert plan.find(SelectNode).streamed is streamed
    assert isinstance(plan.root, SortNode) is (statement == "order")
    assert real.matches(simulate(plan, public))


@pytest.mark.parametrize("place", PLACES)
def test_a_miss_is_a_one_row_hit(database, place: str) -> None:
    """``segment_rows`` = max(1, |T'|): a miss and a one-row hit are one
    plan and one trace, held or spilled."""
    for statement in ("aggregate", "group-by"):
        hit, hit_plan, _ = run(database, place, "hit", statement)
        miss, miss_plan, _ = run(database, place, "miss", statement)
        assert hit_plan.cache_key == miss_plan.cache_key
        assert hit.matches(miss)


def test_sim_differs_when_leakage_differs(database) -> None:
    """A tree one level shorter makes fewer ORAM accesses (on the paper's
    index, where every level is in the ORAM); a treetop one level shallower
    shows two more bucket accesses per ORAM access."""
    def changed(public: PublicState, **facts) -> PublicState:
        return replace(public, tables={"t": replace(public.tables["t"], **facts)})

    real, plan, public = run(database, "paper", "range-10", "select")
    height = public.tables["t"].height
    assert not real.matches(simulate(plan, changed(public, height=height - 1)))
    real, plan, public = run(database, "held", "range-10", "select")
    treetop = public.tables["t"].treetop_levels
    assert not real.matches(simulate(plan, changed(public, treetop_levels=treetop - 1)))


#: Statements over an index-only table that no key interval bounds: each
#: scans a copy of the index (``index_linear``).  ``f`` is a flat table whose
#: keys join ``t``'s, on either side.
LINEAR = {
    "select": "SELECT * FROM t WHERE amount < 3",
    "order": "SELECT * FROM t WHERE amount < 3 ORDER BY amount DESC",
    "aggregate": "SELECT COUNT(*), SUM(amount) FROM t WHERE amount < 3",
    "group-by": "SELECT grp, COUNT(*), MAX(amount) FROM t GROUP BY grp",
    "join-left": "SELECT COUNT(*) FROM t JOIN f ON k = fk",
    "join-right": "SELECT grp, fk FROM f JOIN t ON fk = k",
    "self-join": "SELECT COUNT(*) FROM t JOIN t ON k = k",
}

FLAT = Schema([int_column("fk"), int_column("x")])


def index_only_database(oram_kind: str, live: int) -> ObliDB:
    """An index-only ``t`` of capacity 64 holding ``live`` rows, and a flat
    ``f`` of 32 slots holding 20."""
    db = ObliDB(cipher="null", keep_trace_events=True, seed=11)
    db.create_table(
        "t", SCHEMA, 64, method=StorageMethod.INDEXED, key_column="k", oram_kind=oram_kind
    )
    db.insert_many("t", [(i, i % 5, i % 7) for i in range(live)])
    db.create_table("f", FLAT, 32, oram_kind=oram_kind)
    db.insert_many("f", [(2 * i, i) for i in range(20)], fast=True)
    return db


class TestIndexLinear:
    """A statement over an index-only table copies the index to a flat
    scratch of its capacity: the scratch's allocation pass, the linear scan
    of every bucket the ORAM keeps outside the enclave, then the copy's
    ``W 0..capacity-1``, whatever the live row count."""

    @pytest.mark.parametrize("oram_kind", ["path", "paper"])
    def test_the_live_row_count_does_not_show(self, oram_kind: str) -> None:
        traces, keys = [], set()
        for live in (10, 40):
            db = index_only_database(oram_kind, live)
            oram = db.table("t").indexed.oram
            real, plan = real_query_trace(db, LINEAR["aggregate"])
            scan = plan.root.source
            assert (scan.access_method, scan.rows) == (AccessMethod.INDEX_LINEAR, 64)
            buckets = oram.num_buckets - ((1 << oram.treetop_levels) - 1)
            # Allocation, scan, copy, then the aggregate's read pass.
            assert real.length == 64 + buckets + 64 + 64
            traces.append(real)
            keys.add(plan.cache_key)
        assert len(keys) == 1
        assert traces[0].digest == traces[1].digest

    @pytest.mark.parametrize("oram_kind", ["path", "paper"])
    @pytest.mark.parametrize("statement", LINEAR)
    def test_real_equals_sim(self, oram_kind: str, statement: str) -> None:
        db = index_only_database(oram_kind, 40)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, LINEAR[statement])
        methods = {node.access_method for node in plan.root.walk() if isinstance(node, ScanNode)}
        assert AccessMethod.INDEX_LINEAR in methods
        assert real.matches(simulate(plan, public))

    def test_sim_differs_when_leakage_differs(self) -> None:
        """A copy of one slot fewer writes one block fewer."""
        db = index_only_database("path", 40)
        public = PublicState.of(db)
        real, plan = real_query_trace(db, LINEAR["aggregate"])
        wrong = replace(plan, root=replace(plan.root, source=replace(plan.root.source, rows=63)))
        assert not real.matches(simulate(wrong, public))
