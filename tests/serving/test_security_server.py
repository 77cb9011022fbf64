"""Security: the server adds no leakage to the engine's.

The adversary watches untrusted memory.  The single-caller engine shows it
one statement after another; the server must show it nothing more — no
trace that says two clients asked the same question at once, and no
missing trace that says a read was answered from another's execution.

Method: k sessions issue reads, identical and different, concurrently
through :class:`ObliDBServer`, the first execution parked under the engine
lock until every session has admitted its first statement, so identical
reads are in flight together.  The server's ``on_statement_executed`` hook
logs the order the lock ran them in.  A twin database runs the logged
statements one after another; the two canonical traces must be equal.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import ObliDB, ObliDBServer
from repro.analysis import canonicalize, oram_regions_of
from repro.serving import ServerHooks

pytestmark = pytest.mark.serving

SCHEMA = "CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 48 METHOD both KEY k"
SESSIONS = 4

READS = [
    "SELECT * FROM t WHERE k = 7",
    "SELECT * FROM t WHERE k >= 3 AND k <= 12",
    "SELECT COUNT(*), SUM(v) FROM t WHERE v < 500",
    "SELECT * FROM t WHERE v < 300",
]

#: name -> each session's statements.
MIXES = {
    "identical": [[READS[1]] * 3 for _ in range(SESSIONS)],
    "different": [READS[i:] + READS[:i] for i in range(SESSIONS)],
}


def build_db() -> ObliDB:
    db = ObliDB(cipher="null", keep_trace_events=True, allow_continuous=False, seed=1)
    db.sql(SCHEMA)
    db.insert_many("t", [(k, (k * 13) % 997, f"s{k}") for k in range(30)])
    return db


def trace_of(db: ObliDB):
    return canonicalize(db.enclave.trace.events, oram_regions_of(db.enclave))


def served(scripts: list[list[str]]) -> tuple[ObliDB, ObliDBServer, list[str]]:
    """Run each script on its own session, concurrently; returns the
    database, the server and the statements in the order they executed."""
    db = build_db()
    db.enclave.trace.clear()
    log: list[str] = []
    release = threading.Event()

    def executed(text: str, result) -> None:
        log.append(text)
        if len(log) == 1:
            release.wait(10)

    server = ObliDBServer(db, hooks=ServerHooks(on_statement_executed=executed))
    errors: list[BaseException] = []

    def client(script: list[str]) -> None:
        session = server.session()
        try:
            for sql in script:
                session.execute(sql)
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [threading.Thread(target=client, args=(script,)) for script in scripts]
    for thread in threads:
        thread.start()
    deadline = time.monotonic() + 10
    while server.stats.admitted < len(scripts) and time.monotonic() < deadline:
        time.sleep(0.001)
    release.set()
    for thread in threads:
        thread.join(timeout=30)
        assert not thread.is_alive()
    assert not errors
    return db, server, log


@pytest.mark.parametrize("mix", MIXES)
def test_concurrent_trace_is_the_sequential_trace(mix: str) -> None:
    scripts = MIXES[mix]
    db, server, log = served(scripts)
    total = sum(len(script) for script in scripts)
    assert sorted(log) == sorted(sql for script in scripts for sql in script)
    assert server.stats.executed["read"] == total
    assert server.stats.snapshot()["coalesced"] == 0

    twin = build_db()
    twin.enclave.trace.clear()
    for sql in log:
        twin.sql(sql)
    assert trace_of(db).matches(trace_of(twin))


def test_each_identical_read_leaves_its_own_trace() -> None:
    """k identical concurrent reads leave k times one read's trace: the
    adversary sees as many executions as there were clients, as it would
    from the engine alone."""
    scripts = MIXES["identical"]
    db, _, log = served(scripts)
    single = build_db()
    single.enclave.trace.clear()
    single.sql(READS[1])
    assert trace_of(db).length == len(log) * trace_of(single).length
