"""Count and law pins for flat selections that read their table once.

On a table that is not ``oram_kind="paper"``, the planner's statistics pass
is also the Small algorithm's first pass: it keeps the first ``buffer_rows``
(S) matching frames under the reservation Small's buffer takes.  With
N = capacity and r = |R|:

* **held** (r ≤ S, r = 0 included; ``SelectNode.in_enclave``): the kept
  rows are the answer.  The statement's trace is ``R 0..N-1`` and nothing
  else — no output table, no Small pass, no read-back;
* **streamed** (r > S and Small chosen; ``SelectNode.resumed`` and
  ``streamed``, since no ORDER BY sits above it): Small takes the kept
  buffer as its first pass's and resumes after it, and every pass hands its
  buffer to the result — no output table is allocated, flushed or read
  back.  Held and streamed selections share one form, ``max(1, p)·N`` R,
  0 W;
* everything else (Large, Continuous, Hash, padding mode) and every
  ``"paper"`` table runs as the paper does.

**The law**, as a deletion from the ``"paper"`` twin's trace (same rows,
same seed, p = ⌈r/S⌉), ``"paper"`` → default:

* held, 1 ≤ r ≤ S: ``2N + r`` R, ``2r`` W → ``N`` R; deleted ``N + r`` R,
  ``2r`` W;
* held, r = 0 (``"paper"`` runs Hash into one 5-slot chain, compacted to
  one row): ``12N + 30`` R, ``10N + 22`` W → ``N`` R; deleted ``11N + 30``
  R, ``10N + 22`` W;
* streamed: ``(p + 1)N + r`` R, ``2r`` W → ``pN`` R, 0 W; deleted the
  first pass's ``N`` R, the output's init sweep ``W 0..r-1``, every flush
  and the read-back ``R 0..r-1``.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import pytest

from repro import ObliDB
from repro.analysis import canonicalize
from repro.planner import SelectAlgorithm, SelectNode
from repro.storage import Schema, int_column, str_column
from repro.storage.rows import framed_size

SCHEMA = Schema([int_column("id"), int_column("v"), str_column("pad", 24)])
N = 64
FRAME = framed_size(SCHEMA)
#: Ten framed rows of oblivious memory on a flat-only database: S = 8.
FREE_ROWS = 10
S = 8


def _database(oram_kind: str = "path", seed: int = 3, free_rows: int = FREE_ROWS) -> ObliDB:
    """``v`` is a shuffled permutation of 0..N-1, so ``v < r`` keeps exactly r
    scattered rows."""
    db = ObliDB(
        oblivious_memory_bytes=free_rows * FRAME,
        cipher="null",
        seed=7,
        keep_trace_events=True,
    )
    db.create_table("t", SCHEMA, N, oram_kind=oram_kind)
    values = list(range(N))
    random.Random(seed).shuffle(values)
    db.insert_many("t", [(i, values[i], f"row-{i}") for i in range(N)], fast=True)
    return db


def _select(r: int) -> str:
    return f"SELECT * FROM t WHERE v < {r}"


def _run(db: ObliDB, sql: str):
    """The result and the statement's trace events."""
    start = len(db.enclave.trace.events)
    result = db.sql(sql)
    return result, db.enclave.trace.events[start:]


def _counts(events) -> tuple[int, int]:
    ops = Counter(event.op for event in events)
    return ops["R"], ops["W"]


def _paper_counts(r: int) -> tuple[int, int]:
    if r == 0:
        return 12 * N + 30, 10 * N + 22
    return (math.ceil(r / S) + 1) * N + r, 2 * r


def _deleted(r: int) -> tuple[int, int]:
    if r == 0:
        return 11 * N + 30, 10 * N + 22
    return N + r, 2 * r


@pytest.mark.parametrize("r", [0, 1, S, S + 1, 2 * S + 1])
def test_closed_form_counts(r: int) -> None:
    default, paper = _database(), _database("paper")
    result, events = _run(default, _select(r))
    reference, reference_events = _run(paper, _select(r))
    assert sorted(result.rows) == sorted(reference.rows)
    assert len(result.rows) == r
    select = result.plan.find(SelectNode)
    assert (select.in_enclave, select.resumed, select.streamed) == (r <= S, r > S, r > S)
    assert (select.algorithm, select.buffer_rows) == (SelectAlgorithm.SMALL, S)
    paper_select = reference.plan.find(SelectNode)
    assert (paper_select.in_enclave, paper_select.resumed) == (False, False)

    assert _counts(reference_events) == _paper_counts(r)
    deleted_reads, deleted_writes = _deleted(r)
    assert _counts(events) == (
        _paper_counts(r)[0] - deleted_reads,
        _paper_counts(r)[1] - deleted_writes,
    )
    assert _counts(events) == (max(1, math.ceil(r / S)) * N, 0)
    # The counters move by exactly the deleted transfers.
    assert (
        reference.cost["untrusted_reads"] - result.cost["untrusted_reads"],
        reference.cost["untrusted_writes"] - result.cost["untrusted_writes"],
    ) == (deleted_reads, deleted_writes)


@pytest.mark.parametrize("r", [0, 1, S, S + 1, 2 * S + 1])
def test_default_trace_is_the_paper_trace_with_the_named_accesses_deleted(r: int) -> None:
    _, events = _run(_database(), _select(r))
    _, reference = _run(_database("paper"), _select(r))
    if r <= S:
        # Held: the statistics pass alone.
        assert events == reference[:N]
    else:
        # Streamed: the stats pass, then Small's other passes; the paper's
        # first pass and every access to its output table are deleted.
        first_pass = reference[N + r : 2 * N + r]
        assert {(event.op, event.region) for event in first_pass} == {
            ("R", "table:t:flat")
        }
        assert [event.index for event in first_pass] == list(range(N))
        output = [event for event in reference if event.region != "table:t:flat"]
        assert [event.op for event in output] == ["W"] * 2 * r + ["R"] * r
        assert events == reference[:N] + [
            event for event in reference[2 * N + r :] if event.region == "table:t:flat"
        ]


@pytest.mark.parametrize("sql", [_select(0), _select(3), _select(S), _select(2 * S + 1)])
def test_equal_public_sizes_different_contents_equal_digests(sql: str) -> None:
    traces = []
    for seed in (3, 4):
        db = _database(seed=seed)
        _, events = _run(db, sql)
        traces.append(canonicalize(events))
    assert traces[0].matches(traces[1])


def test_empty_and_full_buffer_share_one_held_trace() -> None:
    """r = 0 and r = S leave the same trace, the scan; their plans differ
    only in ``output_rows``, the |R| the plan has always carried."""
    empty, empty_events = _run(_database(), _select(0))
    full, full_events = _run(_database(), _select(S))
    assert empty_events == full_events
    assert empty.plan.find(SelectNode).output_rows == 0
    assert full.plan.find(SelectNode).output_rows == S
    assert empty.plan.cache_key != full.plan.cache_key


def test_order_by_limit_over_held_rows() -> None:
    sql = "SELECT id, v FROM t WHERE v < 6 ORDER BY v DESC LIMIT 4"
    db = _database()
    result, events = _run(db, sql)
    assert _counts(events) == (N, 0)
    assert [v for _, v in result.rows] == [5, 4, 3, 2]
    assert result.rows == _database("paper").sql(sql).rows


@pytest.mark.parametrize("r", [0, 1, S, S + 1, 2 * S + 1])
def test_explain_reads_the_table_once_and_keeps_nothing(r: int) -> None:
    db = _database()
    account = db.enclave.oblivious
    free, regions = account.free_bytes, db.enclave.untrusted.region_names()
    before = db.cost_snapshot()
    plan = db.explain(_select(r))
    cost = db.cost_delta(before)
    assert (cost.untrusted_reads, cost.untrusted_writes) == (N, 0)
    assert account.free_bytes == free
    assert db.enclave.untrusted.region_names() == regions
    assert plan.cache_key == db.sql(_select(r)).plan.cache_key
    assert account.free_bytes == free


def test_the_other_algorithms_are_unchanged() -> None:
    """Large (most of the table matches) and Hash (a one-row buffer) run as
    on the paper's table, bit for bit."""
    for free_rows, r, algorithm in ((FREE_ROWS, 40, "large"), (2, 25, "hash")):
        result, events = _run(_database(free_rows=free_rows), _select(r))
        reference, reference_events = _run(
            _database("paper", free_rows=free_rows), _select(r)
        )
        select = result.plan.find(SelectNode)
        assert select.algorithm.value == algorithm
        assert (select.in_enclave, select.resumed) == (False, False)
        assert events == reference_events
        assert result.plan.cache_key == reference.plan.cache_key


def test_no_room_for_one_buffered_row_keeps_nothing() -> None:
    """Below one framed row the pass cannot take Small's buffer: it keeps
    nothing and the selection runs as on the paper's table."""
    result, events = _run(_database(free_rows=0), _select(0))
    reference, reference_events = _run(_database("paper", free_rows=0), _select(0))
    assert result.plan.find(SelectNode).in_enclave is False
    assert events == reference_events
