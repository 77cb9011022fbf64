"""Regression tests for the re-entrancy hazards the serving layer exposed.

Before the serving front end, the engine had exactly one caller, so the
table revision counter was unlocked.  These tests hammer it from many
threads and pin the now-locked invariants: no lost revision bumps, and
FIFO write ordering through the server's queues.
"""

from __future__ import annotations

import threading

import pytest

from repro import Enclave, ObliDB, ObliDBServer
from repro.storage import Schema, int_column
from repro.storage.table import StorageMethod, Table

pytestmark = pytest.mark.serving


def _hammer(workers: int, fn) -> None:
    """Run ``fn(index)`` on ``workers`` threads with a start barrier."""
    barrier = threading.Barrier(workers)
    errors: list[BaseException] = []

    def body(index: int) -> None:
        barrier.wait()
        try:
            fn(index)
        except BaseException as error:  # pragma: no cover - diagnostic
            errors.append(error)

    threads = [
        threading.Thread(target=body, args=(index,)) for index in range(workers)
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not errors, errors


class TestRevisionBumpThreadSafety:
    def test_no_lost_bumps(self) -> None:
        """T threads × K bumps land exactly T*K mutations (the unlocked
        counter lost increments under the GIL's eval-loop preemption)."""
        table = Table(
            Enclave(cipher="null"),
            "t",
            Schema([int_column("k")]),
            capacity=8,
            method=StorageMethod.FLAT,
        )
        workers, bumps = 16, 500
        base = table.revision[1]

        def worker(index: int) -> None:
            for _ in range(bumps):
                table.bump_revision()

        _hammer(workers, worker)
        assert table.revision[1] == base + workers * bumps


class TestWriteQueueFifo:
    def test_queued_writers_drain_in_arrival_order(self) -> None:
        """Writers that blocked behind a parked head leave the queue in
        arrival order — the ticket FIFO, not notify-wakeup luck."""
        db = ObliDB(cipher="null", seed=1)
        db.sql("CREATE TABLE t (k INT, v INT) CAPACITY 64")
        server = ObliDBServer(db)
        order: list[int] = []
        order_lock = threading.Lock()

        release = threading.Event()
        started = threading.Event()

        def head() -> None:
            session = server.session()
            statement_done = threading.Event()

            def hold(text: str, result) -> None:
                started.set()
                release.wait(10)
                statement_done.set()

            server.hooks.on_statement_executed = hold
            session.execute("INSERT INTO t VALUES (0, 0)")
            server.hooks.on_statement_executed = None
            with order_lock:
                order.append(0)

        def follower(index: int) -> None:
            session = server.session()
            session.execute(f"INSERT INTO t VALUES ({index}, 0)")
            with order_lock:
                order.append(index)

        head_thread = threading.Thread(target=head)
        head_thread.start()
        started.wait(10)
        followers = []
        for index in range(1, 6):
            thread = threading.Thread(target=follower, args=(index,))
            thread.start()
            # Wait until this follower is queued before starting the next,
            # so arrival order is deterministic.
            while server.write_queue_depths().get("t", 0) < index + 1:
                threading.Event().wait(0.001)
            followers.append(thread)
        release.set()
        head_thread.join(timeout=30)
        for thread in followers:
            thread.join(timeout=30)
        assert order == [0, 1, 2, 3, 4, 5]
        assert server.stats.write_queue_peak == 6
