"""Serving front end: coalescing correctness and admission behaviour.

The contract under test: concurrent identical read statements coalesce
onto one in-flight execution, and every coalesced client receives rows
**bit-identical** to what sequential execution of its statement would have
returned.  Plus the admission policy (quotas, fail-fast rejection) and the
write queues' ordering guarantee.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro import AdmissionPolicy, ObliDB, ObliDBServer
from repro.engine import SelectStatement, parse
from repro.operators.predicate import Predicate
from repro.planner.admission import admission_key
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


class TestCoalescedResultsBitIdentical:
    def test_forced_coalescing_returns_sequential_rows(self) -> None:
        """Leader parks until three followers join; all four answers equal
        the sequential execution, row for row, column for column."""
        db = build_db()
        oracle = {sql: db.sql(sql) for sql in QUERY_POOL}

        followers_joined = threading.Event()
        server = ObliDBServer(
            db,
            hooks=ServerHooks(
                on_leader_execute=lambda key: followers_joined.wait(5)
            ),
        )
        session = server.session()
        sql = QUERY_POOL[1]
        results: list = []
        errors: list = []

        def client() -> None:
            try:
                results.append(session.execute(sql))
            except BaseException as error:  # pragma: no cover - diagnostic
                errors.append(error)

        leader = threading.Thread(target=client)
        leader.start()
        # Wait until the leader has registered its group, then pile on.
        deadline = threading.Event()
        for _ in range(100):
            if server.read_groups_in_flight() == 1:
                break
            deadline.wait(0.01)
        followers = [threading.Thread(target=client) for _ in range(3)]
        for thread in followers:
            thread.start()
        for _ in range(200):
            if server.stats.coalesced == 3:
                break
            deadline.wait(0.01)
        followers_joined.set()
        for thread in [leader, *followers]:
            thread.join(timeout=10)
        assert not errors
        assert len(results) == 4
        for result in results:
            assert result.rows == oracle[sql].rows
            assert result.column_names == oracle[sql].column_names
        assert server.stats.coalesced == 3
        assert server.stats.executed["read"] == 1

    def test_follower_result_is_a_private_copy(self) -> None:
        db = build_db()
        joined = threading.Event()
        server = ObliDBServer(
            db, hooks=ServerHooks(on_leader_execute=lambda key: joined.wait(5))
        )
        session = server.session()
        sql = QUERY_POOL[0]
        results: list = []

        def client() -> None:
            results.append(session.execute(sql))

        threads = [threading.Thread(target=client) for _ in range(2)]
        threads[0].start()
        while server.read_groups_in_flight() == 0:
            pass
        threads[1].start()
        while server.stats.coalesced < 1:
            pass
        joined.set()
        for thread in threads:
            thread.join(timeout=10)
        first, second = results
        assert first.rows == second.rows
        first.rows.append(("mutated",))
        assert first.rows != second.rows

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
        assert not failures
        stats = server.stats.snapshot()
        assert stats["admitted"] == clients * per_client
        assert stats["rejected"] == 0
        # Conservation: every admitted read either executed or coalesced.
        assert (
            stats["executed"]["read"] + stats["coalesced"]
            == clients * per_client
        )

    def test_logically_equal_predicates_coalesce(self) -> None:
        """AND-commuted predicates share one admission key (the planner's
        normalization) and therefore one execution."""
        db = build_db()
        joined = threading.Event()
        server = ObliDBServer(
            db, hooks=ServerHooks(on_leader_execute=lambda key: joined.wait(5))
        )
        session = server.session()
        variants = [
            "SELECT * FROM t WHERE k >= 3 AND k <= 9",
            "SELECT * FROM t WHERE k <= 9 AND k >= 3",
        ]
        results: list = []

        def client(sql: str) -> None:
            results.append(session.execute(sql))

        first = threading.Thread(target=client, args=(variants[0],))
        first.start()
        while server.read_groups_in_flight() == 0:
            pass
        second = threading.Thread(target=client, args=(variants[1],))
        second.start()
        while server.stats.coalesced < 1:
            pass
        joined.set()
        first.join(timeout=10)
        second.join(timeout=10)
        assert server.stats.executed["read"] == 1
        assert results[0].rows == results[1].rows


class _EvenKeys(Predicate):
    """A user predicate without a structural repr: its default repr is a
    memory address, which allocator reuse could give another predicate."""

    def compile(self, schema):
        k = schema.column_index("k")
        return lambda row: row[k] % 2 == 0

    def columns(self):
        return {"k"}


class TestAdmissionKey:
    def test_admission_key_refuses_address_repr(self) -> None:
        statement = SelectStatement(table="t", where=_EvenKeys())
        assert admission_key(statement, None, True) is None

    def test_literal_parameters_are_in_the_key(self) -> None:
        """Equal plans with different hidden parameters never share a key."""
        keys = {
            admission_key(parse(f"SELECT * FROM t WHERE k = {k}"), None, True)
            for k in (3, 7)
        }
        assert len(keys) == 2 and None not in keys

    def test_concurrent_reads_both_execute_uncoalesced(self) -> None:
        """Two reads with such a predicate form no group: the second waits
        for the engine and runs again, even while the first is in flight."""
        db = build_db()
        parked = threading.Event()
        release = threading.Event()

        def hold(text: str, result) -> None:
            if not parked.is_set():
                parked.set()
                release.wait(10)

        server = ObliDBServer(db, hooks=ServerHooks(on_statement_executed=hold))
        session = server.session()
        statement = SelectStatement(table="t", where=_EvenKeys())
        results: list = []

        def client() -> None:
            results.append(session.execute_statement(statement))

        threads = [threading.Thread(target=client) for _ in range(2)]
        threads[0].start()
        assert parked.wait(10)
        threads[1].start()
        deadline = time.monotonic() + 10
        while server.stats.admitted < 2 and time.monotonic() < deadline:
            time.sleep(0.001)
        assert server.stats.admitted == 2
        assert server.read_groups_in_flight() == 0
        release.set()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert server.stats.executed["read"] == 2
        assert server.stats.coalesced == 0
        assert results[0].rows == results[1].rows
        assert sorted(results[0].rows) == [
            (k, (k * 37) % 1000, f"s{k}") for k in range(0, 30, 2)
        ]


class TestAdmissionPolicy:
    def test_max_in_flight_rejects(self) -> None:
        db = build_db()
        hold = threading.Event()
        server = ObliDBServer(
            db,
            policy=AdmissionPolicy(max_in_flight=1),
            hooks=ServerHooks(on_leader_execute=lambda key: hold.wait(5)),
        )
        session = server.session()
        started = threading.Event()

        def occupant() -> None:
            started.set()
            session.execute(QUERY_POOL[0])

        thread = threading.Thread(target=occupant)
        thread.start()
        started.wait(5)
        while server.read_groups_in_flight() == 0:
            pass
        with pytest.raises(AdmissionError):
            session.execute(QUERY_POOL[2])
        hold.set()
        thread.join(timeout=10)
        assert server.stats.rejected == 1
        # A rejected statement never reached the engine.
        assert server.stats.executed["read"] == 1

    def test_class_quota_is_per_class(self) -> None:
        db = build_db()
        hold = threading.Event()
        server = ObliDBServer(
            db,
            policy=AdmissionPolicy(class_quotas={"write": 1}),
            hooks=ServerHooks(on_leader_execute=lambda key: hold.wait(5)),
        )
        session = server.session()
        # Reads are not quota'd: park one in flight, reads still admitted.
        reader = threading.Thread(
            target=session.execute, args=(QUERY_POOL[0],)
        )
        reader.start()
        while server.read_groups_in_flight() == 0:
            pass
        session.execute("INSERT INTO t VALUES (40, 1, 'x')")  # write admitted
        hold.set()
        reader.join(timeout=10)

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
        hold = threading.Event()
        server = ObliDBServer(
            db,
            tenant_policies={"small": AdmissionPolicy(max_in_flight=1)},
            hooks=ServerHooks(on_leader_execute=lambda key: hold.wait(5)),
        )
        small = server.session("small")
        big = server.session("big")
        thread = threading.Thread(target=small.execute, args=(QUERY_POOL[0],))
        thread.start()
        while server.read_groups_in_flight() == 0:
            pass
        with pytest.raises(AdmissionError):
            small.execute(QUERY_POOL[2])
        # The other tenant coalesces onto the parked leader just fine.
        follower = threading.Thread(target=big.execute, args=(QUERY_POOL[0],))
        follower.start()
        while server.stats.coalesced < 1:
            pass
        hold.set()
        thread.join(timeout=10)
        follower.join(timeout=10)


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
