"""Count and trace pins for the column-aware data path.

Operator passes decode only the columns they use (``Schema.reader``) and
move rows they leave unchanged as their authenticated frames.  Over a flat
table with a wide STR pad, the analytic statement shapes

* decode the pad only when the statement selects it,
* validate and encode only rows an operator builds (a join's emitted pairs,
  the groups a GROUP BY writes out) — none from the statistics pass, Small,
  aggregates, compaction or a GROUP BY whose groups are held,
* and leave every adversary-visible fact where the row-at-a-time path puts
  it: trace digest, ``CostModel`` counters, rows and ``plan.cache_key``.

The row-at-a-time reference decodes every frame whole and projects it, and
flushes Small's buffer with one ``write_framed`` per row.
"""

from __future__ import annotations

import random

import pytest

from repro import ObliDB
from repro.storage import FlatStorage, Schema
from repro.storage.rows import unframe_row

VISITS, USERS = 512, 64

#: The six statement shapes of the end-to-end ``analytic_scan`` cycle.
SHAPES = (
    "SELECT users.region, visits.amount FROM users JOIN visits"
    " ON users.uid = visits.uid WHERE visits.day < 180",
    "SELECT uid, COUNT(*), SUM(amount) FROM visits WHERE day >= 100 GROUP BY uid",
    "SELECT COUNT(*), SUM(amount) FROM visits WHERE day < 200 AND amount > 1500",
    "SELECT * FROM visits WHERE amount < 2000",
    "SELECT * FROM visits WHERE vid >= 100 AND vid < 140",
    "SELECT vid, amount FROM visits WHERE day >= 50 AND day < 57"
    " ORDER BY amount DESC LIMIT 20",
)
JOIN, GROUP_BY = SHAPES[0], SHAPES[1]
SELECTS_PAD = {SHAPES[3], SHAPES[4]}

#: (oblivious-memory budget, allow_continuous): the analytic configuration
#: (multi-pass Small, in-enclave sort, hash join and hash GROUP BY), a tight
#: one (chunked hash join, Large / Continuous select, bitonic sort, compacted
#: join) and one with no room at all (compaction select, 0-OM join, sorted
#: GROUP BY).
BUDGETS = ((32 << 10, True), (2 << 10, True), (256, False))


def _database(budget: int, allow_continuous: bool) -> ObliDB:
    db = ObliDB(
        oblivious_memory_bytes=budget,
        cipher="null",
        seed=7,
        allow_continuous=allow_continuous,
    )
    rng = random.Random(5)
    db.sql(
        "CREATE TABLE visits (vid INT, uid INT, day INT, amount INT, pad STR(200))"
        f" CAPACITY {VISITS} METHOD flat"
    )
    db.sql(
        "CREATE TABLE users (uid INT, region INT, score INT, pad STR(200))"
        f" CAPACITY {USERS} METHOD flat"
    )
    amounts = rng.sample(range(8 * VISITS), VISITS)
    db.insert_many(
        "visits",
        [
            (vid, rng.randrange(USERS), rng.randrange(365), amounts[vid], f"visit-{vid}-ü")
            for vid in range(VISITS)
        ],
        fast=True,
    )
    db.insert_many(
        "users",
        [(uid, rng.randrange(16), rng.randrange(1000), f"user-{uid}") for uid in range(USERS)],
        fast=True,
    )
    return db


def _observe(budget: int, allow_continuous: bool) -> list[tuple]:
    db = _database(budget, allow_continuous)
    observed = []
    for sql in SHAPES:
        result = db.sql(sql)
        observed.append(
            (sql, db.enclave.trace.digest(), result.cost, result.rows, result.plan.cache_key)
        )
    return observed


def _row_at_a_time(monkeypatch: pytest.MonkeyPatch) -> None:
    """Swap in the reference path: whole-row decode per frame, then
    projection; one ``write_framed`` per row for every range write."""
    reader = Schema.reader

    def whole_rows(self: Schema, columns):
        narrow, _ = reader(self, columns)
        positions = [self.column_index(name) for name in narrow.column_names()]

        def decode(frames):
            rows = [unframe_row(self, framed) for framed in frames]
            return [None if row is None else tuple(row[i] for i in positions) for row in rows]

        return narrow, decode

    def write_each(self: FlatStorage, start: int, frames: list[bytes]) -> None:
        for offset, framed in enumerate(frames):
            self.write_framed(start + offset, framed)

    monkeypatch.setattr(Schema, "reader", whole_rows)
    monkeypatch.setattr(FlatStorage, "write_range_framed", write_each)


@pytest.mark.parametrize("budget, allow_continuous", BUDGETS)
def test_same_trace_counters_rows_and_cache_key_as_row_at_a_time(
    monkeypatch: pytest.MonkeyPatch, budget: int, allow_continuous: bool
) -> None:
    batched = _observe(budget, allow_continuous)
    with monkeypatch.context() as patch:
        _row_at_a_time(patch)
        reference = _observe(budget, allow_continuous)
    for got, expected in zip(batched, reference):
        assert got == expected, got[0]


def test_analytic_block_counts() -> None:
    """Counts, not wall clock: at the analytic configuration every shape
    moves the blocks its closed form says, row-at-a-time or not."""
    n, u = VISITS, USERS
    small_passes = -(-264 // 112)  # |R| = 264 matches, a 112-row buffer
    expected = [
        (u + n, 0),  # build, probe; the output is held in the enclave
        (n, 0),  # one pass; the 63 groups are held: the answer
        (n, 0),  # one fused pass
        # The stats pass is Small's first; the other passes hand their
        # buffers to the result.
        (small_passes * n, 0),
        (n, 0),  # the stats pass kept all 40 matches: the answer
        (n, 0),  # ... and all 13, sorted where they are held
    ]
    observed = _observe(*BUDGETS[0])
    for (sql, _, cost, _, _), (reads, writes) in zip(observed, expected):
        assert (cost["untrusted_reads"], cost["untrusted_writes"]) == (reads, writes), sql
    # Under the tight budget the join's output does not fit: eight hash
    # chunks build, probe and read an output table back; init, probe.
    sql, _, cost, _, _ = _observe(*BUDGETS[1])[0]
    chunks = 8
    assert (cost["untrusted_reads"], cost["untrusted_writes"]) == (
        u + 2 * chunks * n,
        2 * chunks * n,
    ), sql


@pytest.mark.parametrize("budget, allow_continuous", BUDGETS)
def test_only_built_rows_are_validated(
    monkeypatch: pytest.MonkeyPatch, budget: int, allow_continuous: bool
) -> None:
    """Stats, Small, Large, Continuous, compaction and aggregates move or
    read frames; only a join's emitted pairs and the groups of a GROUP BY
    that writes them out (and the 0-OM join's tagged union rows, which it
    builds) are encoded — held groups are not."""
    db = _database(budget, allow_continuous)
    calls = 0
    encode = Schema.validate_and_encode_row

    def counted(self: Schema, row):
        nonlocal calls
        calls += 1
        return encode(self, row)

    monkeypatch.setattr(Schema, "validate_and_encode_row", counted)
    for sql in SHAPES:
        calls = 0
        result = db.sql(sql)
        if sql == GROUP_BY:
            held = result.plan.root.output_rows is None
            assert calls == (0 if held else len(result.rows)), sql
        elif sql == JOIN:
            union = VISITS + USERS if result.plan.root.algorithm.value == "zero_om" else 0
            assert calls == len(result.rows) + union, sql
        else:
            assert calls == 0, sql


@pytest.mark.parametrize("budget", [32 << 10, 2 << 10])  # in-enclave / bitonic sort
def test_select_list_is_applied_at_decode(budget: int) -> None:
    """The result is read through the select list ∪ ORDER BY column and
    re-tupled only when the list is out of schema order, repeats a column
    or leaves out the ORDER BY column."""
    db = _database(budget, True)
    where = "WHERE day >= 50 AND day < 57"
    rows = db.sql(f"SELECT vid, day, amount FROM visits {where}").rows
    by_amount = sorted(rows, key=lambda row: row[2], reverse=True)[:5]
    cases = [
        (["amount", "vid"], [(amount, vid) for vid, _, amount in by_amount]),
        (["vid", "vid"], [(vid, vid) for vid, _, _ in by_amount]),
        (["day"], [(day,) for _, day, _ in by_amount]),
    ]
    for names, expected in cases:
        result = db.sql(
            f"SELECT {', '.join(names)} FROM visits {where} ORDER BY amount DESC LIMIT 5"
        )
        assert (result.column_names, result.rows) == (names, expected)


def test_pad_is_decoded_only_when_selected(monkeypatch: pytest.MonkeyPatch) -> None:
    """At the analytic configuration no pass decodes a row whole or reads
    the pad column unless the statement selects it."""
    db = _database(*BUDGETS[0])
    read_sets: list[frozenset] = []
    whole_rows = 0
    reader, decode_row = Schema.reader, Schema.decode_row

    def recorded(self: Schema, columns):
        columns = frozenset(columns)
        read_sets.append(columns)
        return reader(self, columns)

    def counted(self: Schema, data, offset=0):
        nonlocal whole_rows
        whole_rows += 1
        return decode_row(self, data, offset)

    monkeypatch.setattr(Schema, "reader", recorded)
    monkeypatch.setattr(Schema, "decode_row", counted)
    for sql in SHAPES:
        read_sets.clear()
        whole_rows = 0
        db.sql(sql)
        assert whole_rows == 0, sql
        pads = [columns for columns in read_sets if {"pad", "r_pad"} & columns]
        assert bool(pads) == (sql in SELECTS_PAD), sql
