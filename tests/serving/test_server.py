"""Serving front end: every statement runs, admission and write order.

The contract under test: each admitted statement executes once, under the
engine lock, and every client receives the rows a sequential execution of
its statement returns — identical concurrent reads included.  Plus the
admission policy (quotas, fail-fast rejection) and the write queues'
ordering guarantee.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import AdmissionPolicy, ObliDB, ObliDBServer
from repro.serving import AdmissionError, ServerHooks
from repro.serving.policy import TenantState

pytestmark = pytest.mark.serving

SCHEMA = "CREATE TABLE t (k INT, v INT, s STR(8)) CAPACITY 64 METHOD both KEY k"

#: A small hot-query pool: point, range, aggregate, join-free shapes.
QUERY_POOL = [
    "SELECT * FROM t WHERE k = 5",
    "SELECT * FROM t WHERE k >= 3 AND k <= 9",
    "SELECT COUNT(*), SUM(v) FROM t WHERE v < 500",
    "SELECT * FROM t WHERE k = 17",
]


def build_db(**kwargs) -> ObliDB:
    db = ObliDB(cipher="null", seed=1, allow_continuous=False, **kwargs)
    db.sql(SCHEMA)
    db.insert_many("t", [(k, (k * 37) % 1000, f"s{k}") for k in range(30)])
    return db


class Park:
    """An ``on_statement_executed`` hook that holds the first statement to
    finish under the engine lock — its session's admission slot with it —
    until :meth:`release`."""

    def __init__(self) -> None:
        self.parked = threading.Event()
        self._release = threading.Event()

    def __call__(self, text: str, result) -> None:
        if not self.parked.is_set():
            self.parked.set()
            self._release.wait(10)

    def release(self) -> None:
        self._release.set()


def parked_server(db: ObliDB, **kwargs) -> tuple[ObliDBServer, Park]:
    park = Park()
    return ObliDBServer(db, hooks=ServerHooks(on_statement_executed=park), **kwargs), park


def wait_for(condition, timeout: float = 10) -> None:
    deadline = time.monotonic() + timeout
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.001)


class TestReads:
    def test_identical_concurrent_reads_each_execute(self) -> None:
        """A read admitted while an identical one is in flight waits for
        the engine and runs again: two executions, two equal answers."""
        db = build_db()
        oracle = db.sql(QUERY_POOL[1])
        server, park = parked_server(db)
        session = server.session()
        results: list = []

        def client() -> None:
            results.append(session.execute(QUERY_POOL[1]))

        threads = [threading.Thread(target=client) for _ in range(2)]
        threads[0].start()
        assert park.parked.wait(10)
        threads[1].start()
        wait_for(lambda: server.stats.admitted == 2)
        park.release()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert server.stats.executed["read"] == 2
        assert server.stats.snapshot()["coalesced"] == 0
        for result in results:
            assert result.rows == oracle.rows
            assert result.column_names == oracle.column_names
        # Each client holds its own result.
        results[0].rows.append(("mutated",))
        assert results[0].rows != results[1].rows

    def test_open_loop_many_clients_match_oracle(self, schedule_rng) -> None:
        """Open-loop harness: 8 clients, randomized statement order and
        think time (drawn only from the pinned schedule RNG), every
        response checked against a sequential oracle."""
        db = build_db()
        oracle = {sql: db.sql(sql).rows for sql in QUERY_POOL}
        server = ObliDBServer(db)

        clients = 8
        per_client = 12
        schedules = [
            [
                (schedule_rng.choice(QUERY_POOL), schedule_rng.random() * 0.002)
                for _ in range(per_client)
            ]
            for _ in range(clients)
        ]
        failures: list[str] = []

        def client(index: int) -> None:
            session = server.session(tenant=f"tenant-{index % 2}")
            for sql, think in schedules[index]:
                result = session.execute(sql)
                if result.rows != oracle[sql]:
                    failures.append(f"client {index}: {sql!r} diverged")
                threading.Event().wait(think)

        threads = [
            threading.Thread(target=client, args=(index,))
            for index in range(clients)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert not failures
        stats = server.stats.snapshot()
        assert stats["admitted"] == clients * per_client
        assert stats["rejected"] == 0
        # Conservation: every admitted read executed.
        assert stats["executed"]["read"] == clients * per_client
        assert stats["coalesced"] == 0


class TestAdmissionPolicy:
    def test_max_in_flight_rejects(self) -> None:
        db = build_db()
        server, park = parked_server(db, policy=AdmissionPolicy(max_in_flight=1))
        session = server.session()
        thread = threading.Thread(target=session.execute, args=(QUERY_POOL[0],))
        thread.start()
        assert park.parked.wait(10)
        with pytest.raises(AdmissionError):
            session.execute(QUERY_POOL[2])
        park.release()
        thread.join(timeout=10)
        assert not thread.is_alive()
        assert server.stats.rejected == 1
        # A rejected statement never reached the engine.
        assert server.stats.executed["read"] == 1

    def test_class_quota_is_per_class(self) -> None:
        db = build_db()
        server, park = parked_server(db, policy=AdmissionPolicy(class_quotas={"write": 1}))
        session = server.session()
        # Reads are not quota'd: park one in flight, a write still admits.
        reader = threading.Thread(target=session.execute, args=(QUERY_POOL[0],))
        reader.start()
        assert park.parked.wait(10)
        writer = threading.Thread(
            target=session.execute, args=("INSERT INTO t VALUES (40, 1, 'x')",)
        )
        writer.start()
        wait_for(lambda: server.stats.admitted == 2)
        park.release()
        for thread in (reader, writer):
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert server.stats.rejected == 0
        assert server.stats.executed == {"read": 1, "write": 1, "ddl": 0}

    def test_unknown_quota_class_rejected_at_construction(self) -> None:
        with pytest.raises(ValueError):
            AdmissionPolicy(class_quotas={"scan": 1})

    def test_over_limit_fails_fast(self) -> None:
        """An over-limit request is refused at once, naming the limit."""
        tenant = TenantState("t", AdmissionPolicy(max_in_flight=1))
        tenant.admit("read")
        start = time.monotonic()
        with pytest.raises(AdmissionError, match="max_in_flight=1 reached"):
            tenant.admit("read")
        assert time.monotonic() - start < 0.2

    def test_class_quota_frees_on_release(self) -> None:
        tenant = TenantState("t", AdmissionPolicy(class_quotas={"write": 1}))
        tenant.admit("write")
        # Reads are not quota'd: they admit despite the busy write.
        tenant.admit("read")
        with pytest.raises(AdmissionError, match="write quota=1 reached"):
            tenant.admit("write")
        # Free the write slot; the next write admits again.
        tenant.release("write")
        tenant.admit("write")

    def test_tenants_are_isolated(self) -> None:
        db = build_db()
        oracle = db.sql(QUERY_POOL[0]).rows
        server, park = parked_server(
            db, tenant_policies={"small": AdmissionPolicy(max_in_flight=1)}
        )
        small = server.session("small")
        big = server.session("big")
        thread = threading.Thread(target=small.execute, args=(QUERY_POOL[0],))
        thread.start()
        assert park.parked.wait(10)
        with pytest.raises(AdmissionError):
            small.execute(QUERY_POOL[2])
        # The other tenant admits the same read and runs it once the
        # engine is free.
        results: list = []
        other = threading.Thread(
            target=lambda: results.append(big.execute(QUERY_POOL[0]))
        )
        other.start()
        wait_for(lambda: server.stats.admitted == 2)
        park.release()
        for done in (thread, other):
            done.join(timeout=10)
            assert not done.is_alive()
        assert [result.rows for result in results] == [oracle]
        assert server.stats.executed["read"] == 2


class TestWriteSerialization:
    def test_same_table_writes_apply_in_submission_order(self) -> None:
        """One session's writes to one table land in submission order —
        the per-table FIFO, not lock-acquisition luck, decides."""
        db = build_db(wal=True)
        server = ObliDBServer(db)
        session = server.session()
        for value in range(5):
            session.execute(f"UPDATE t SET v = {value} WHERE k = 1")
        statements, _ = db.wal.read_committed()
        updates = [s for s in statements if s.startswith("UPDATE")]
        assert updates == [
            f"UPDATE t SET v = {value} WHERE k = 1" for value in range(5)
        ]
        assert db.sql("SELECT v FROM t WHERE k = 1").rows == [(4,)]

    def test_concurrent_writers_different_tables_all_land(self) -> None:
        db = build_db()
        db.sql("CREATE TABLE u (k INT, v INT) CAPACITY 64")
        server = ObliDBServer(db)

        def writer(table: str, base: int) -> None:
            session = server.session()
            for i in range(8):
                values = f"{base + i}, {i}"
                if table == "t":
                    values += ", 'w'"
                session.execute(f"INSERT INTO {table} VALUES ({values})")

        threads = [
            threading.Thread(target=writer, args=("u", 100)),
            threading.Thread(target=writer, args=("u", 200)),
            threading.Thread(target=writer, args=("t", 300)),
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert len(db.sql("SELECT * FROM u WHERE k >= 100").rows) == 16
        assert len(db.sql("SELECT * FROM t WHERE k >= 300").rows) == 8
        assert server.stats.executed["write"] == 24
        # No lost revision bumps under concurrency: the engine bumps twice
        # per insert (operator level + executor level), so 16 inserts from
        # two racing writers must land exactly 32 mutations.
        assert db.table("u").revision[1] == 32


def _probe_imports(probe: str) -> None:
    """Run ``probe`` in a fresh interpreter that imports this ``repro``."""
    import os
    import subprocess
    import sys

    import repro

    src = os.path.dirname(os.path.dirname(repro.__file__))
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr


def test_import_repro_loads_no_asyncio() -> None:
    """Nothing in the package awaits: neither ``import repro`` nor ``import
    repro.serving`` loads ``asyncio`` (resident memory in every process)."""
    _probe_imports(
        "import sys, repro, repro.serving\n"
        "assert 'asyncio' not in sys.modules, 'importing repro loaded asyncio'\n"
    )


def test_import_repro_loads_no_multiprocessing() -> None:
    """The engine is single-process: ``import repro`` loads no
    ``multiprocessing`` module (``shared_memory`` included)."""
    _probe_imports(
        "import sys, repro\n"
        "loaded = sorted(m for m in sys.modules if m.split('.')[0] == 'multiprocessing')\n"
        "assert not loaded, loaded\n"
    )
