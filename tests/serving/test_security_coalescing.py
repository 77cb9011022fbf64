"""Security: coalescing is invisible to the untrusted-memory adversary.

The serving layer's coalescing claim is a *security* claim before it is a
throughput claim: a follower that joins an in-flight group must add
**zero** adversary-visible untrusted accesses beyond the single leader
execution.  If following leaked anything — an extra probe, a re-read of
the result region, even a trace event count difference — the adversary
could distinguish "one client asked" from "five clients asked", which the
single-caller engine never reveals.

Method: build two identical databases.  On one, run the statement once,
sequentially.  On the other, run it through the server with one leader
(parked until followers join) and several followers.  Compare raw trace
event counts and canonicalized traces: they must be identical.
"""

from __future__ import annotations

import threading

import pytest

from repro import ObliDB, ObliDBServer
from repro.analysis import assert_indistinguishable, canonicalize, oram_regions_of
from repro.serving import ServerHooks

pytestmark = pytest.mark.serving

SCHEMA = "CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 48 METHOD both KEY k"


def build_db() -> ObliDB:
    db = ObliDB(
        cipher="null", keep_trace_events=True, allow_continuous=False, seed=1
    )
    db.sql(SCHEMA)
    db.insert_many("t", [(k, (k * 13) % 997, f"s{k}") for k in range(30)])
    return db


def coalesced_trace(sql: str, followers: int) -> tuple[list, int]:
    """Trace of one leader + ``followers`` coalesced clients, plus the
    number of statements the engine actually executed."""
    db = build_db()
    joined = threading.Event()
    server = ObliDBServer(
        db, hooks=ServerHooks(on_leader_execute=lambda key: joined.wait(10))
    )
    session = server.session()
    db.enclave.trace.clear()
    errors: list[BaseException] = []

    def client() -> None:
        try:
            session.execute(sql)
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    leader = threading.Thread(target=client)
    leader.start()
    while server.read_groups_in_flight() == 0:
        threading.Event().wait(0.001)
    threads = [threading.Thread(target=client) for _ in range(followers)]
    for thread in threads:
        thread.start()
    while server.stats.coalesced < followers:
        threading.Event().wait(0.001)
    joined.set()
    for thread in [leader, *threads]:
        thread.join(timeout=30)
    assert not errors
    events = list(db.enclave.trace.events)
    regions = oram_regions_of(db.enclave)
    return canonicalize(events, regions), server.stats.executed["read"]


def sequential_trace(sql: str) -> list:
    db = build_db()
    db.enclave.trace.clear()
    db.sql(sql)
    return canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave))


class TestFollowersAddZeroAccesses:
    @pytest.mark.parametrize(
        "sql",
        [
            "SELECT * FROM t WHERE k = 7",
            "SELECT * FROM t WHERE k >= 3 AND k <= 12",
            "SELECT COUNT(*), SUM(v) FROM t WHERE v < 500",
        ],
        ids=["point", "range", "aggregate"],
    )
    def test_coalesced_trace_identical_to_sequential(self, sql: str) -> None:
        """Leader + 4 followers emit exactly the trace of ONE sequential
        execution: same event count, same canonical form."""
        reference = sequential_trace(sql)
        trace, executions = coalesced_trace(sql, followers=4)
        assert executions == 1
        assert trace.length == reference.length
        assert_indistinguishable([trace, reference])

    def test_follower_count_does_not_change_trace(self) -> None:
        """1 follower vs 7 followers: bit-identical traces — the adversary
        cannot count clients behind a coalesced read."""
        sql = "SELECT * FROM t WHERE k >= 5 AND k <= 20"
        few, _ = coalesced_trace(sql, followers=1)
        many, _ = coalesced_trace(sql, followers=7)
        assert few.length == many.length
        assert_indistinguishable([few, many])

    def test_follower_result_fanout_touches_no_untrusted_memory(self) -> None:
        """The result hand-off itself (copying the leader's QueryResult to
        followers) happens entirely enclave-side: after the leader's
        execution completes, zero further trace events appear while the
        followers consume their copies."""
        db = build_db()
        joined = threading.Event()
        server = ObliDBServer(
            db, hooks=ServerHooks(on_leader_execute=lambda key: joined.wait(10))
        )
        session = server.session()
        sql = "SELECT * FROM t WHERE k >= 0 AND k <= 29"
        results: list = []

        def client() -> None:
            results.append(session.execute(sql))

        leader = threading.Thread(target=client)
        leader.start()
        while server.read_groups_in_flight() == 0:
            threading.Event().wait(0.001)
        followers = [threading.Thread(target=client) for _ in range(3)]
        for thread in followers:
            thread.start()
        while server.stats.coalesced < 3:
            threading.Event().wait(0.001)
        joined.set()
        leader.join(timeout=30)
        # Leader done: snapshot the trace, then let the followers finish.
        events_after_leader = len(db.enclave.trace.events)
        for thread in followers:
            thread.join(timeout=30)
        assert len(results) == 4
        assert len(db.enclave.trace.events) == events_after_leader

