"""Tests for the write-ahead log extension (Section 3)."""

from __future__ import annotations

import pytest

from repro import ObliDB
from repro.enclave import (
    Enclave,
    IntegrityError,
    SQLSyntaxError,
    StorageError,
    WALReplayError,
)
from repro.engine import WriteAheadLog


class TestWriteAheadLog:
    def test_append_and_read_back(self, enclave: Enclave) -> None:
        wal = WriteAheadLog(enclave)
        wal.append("INSERT INTO t VALUES (1)")
        wal.append("DELETE FROM t WHERE x = 2")
        assert wal.count == 2
        assert wal.read_all() == [
            "INSERT INTO t VALUES (1)",
            "DELETE FROM t WHERE x = 2",
        ]

    def test_log_grows_past_initial_capacity(self, enclave: Enclave) -> None:
        wal = WriteAheadLog(enclave)
        for i in range(200):
            wal.append(f"INSERT INTO t VALUES ({i})")
        assert wal.count == 200
        assert len(wal.read_all()) == 200

    def test_append_is_one_sequential_write(self, enclave: Enclave) -> None:
        """The paper's no-extra-leakage argument: one write per statement."""
        wal = WriteAheadLog(enclave)
        enclave.trace.clear()
        wal.append("INSERT INTO t VALUES (1)")
        events = enclave.trace.events
        assert [(e.op, e.index) for e in events] == [("W", 0)]

    def test_tampered_record_detected(self, enclave: Enclave) -> None:
        wal = WriteAheadLog(enclave)
        wal.append("INSERT INTO t VALUES (1)")
        wal.append("INSERT INTO t VALUES (2)")
        # The OS swaps two validly sealed records (a reorder attack).
        first = enclave.untrusted.peek(wal.region_name, 0)
        second = enclave.untrusted.peek(wal.region_name, 1)
        enclave.untrusted.tamper(wal.region_name, 0, second)
        enclave.untrusted.tamper(wal.region_name, 1, first)
        with pytest.raises(IntegrityError):
            wal.read_all()

    def test_truncation_detected(self, enclave: Enclave) -> None:
        wal = WriteAheadLog(enclave)
        wal.append("INSERT INTO t VALUES (1)")
        wal.append("INSERT INTO t VALUES (2)")
        enclave.untrusted.tamper(wal.region_name, 1, None)
        with pytest.raises(IntegrityError, match="truncated"):
            wal.read_all(expected_count=2)

    def test_batched_read_is_the_per_record_loop(self, enclave: Enclave) -> None:
        """read_all's chunked range reads record R 0 .. R count-1, exactly
        the sequence of the per-record scalar loop."""
        wal = WriteAheadLog(enclave)
        for i in range(5):
            wal.append(f"INSERT INTO t VALUES ({i})")
        enclave.trace.clear()
        wal.read_all()
        assert [(e.op, e.region, e.index) for e in enclave.trace.events] == [
            ("R", wal.region_name, i) for i in range(5)
        ]

    def test_expected_count_mismatch_raises_typed_error(
        self, enclave: Enclave
    ) -> None:
        """A stale (or tampered-forward) client counter is rejected against
        the rollback-protected ledger head before any record is decrypted."""
        wal = WriteAheadLog(enclave)
        wal.append("INSERT INTO t VALUES (1)")
        wal.append("INSERT INTO t VALUES (2)")
        assert wal.committed_count == 2
        enclave.trace.clear()
        for wrong in (1, 3):
            with pytest.raises(WALReplayError, match="mismatch"):
                wal.read_all(expected_count=wrong)
        assert len(enclave.trace) == 0  # rejected before any observable read
        assert len(wal.read_all(expected_count=2)) == 2


class TestGroupCommit:
    def test_append_many_reads_back_in_order(self, enclave: Enclave) -> None:
        wal = WriteAheadLog(enclave)
        wal.append("S0")
        first, count = wal.append_many(["S1", "S2", "S3"])
        assert (first, count) == (1, 3)
        assert wal.count == wal.committed_count == 4
        assert wal.read_all() == ["S0", "S1", "S2", "S3"]

    def test_append_many_empty_batch_is_a_noop(self, enclave: Enclave) -> None:
        wal = WriteAheadLog(enclave)
        wal.append("S0")
        enclave.trace.clear()
        assert wal.append_many([]) == (1, 0)
        assert len(enclave.trace) == 0
        assert wal.committed_count == 1

    def test_append_many_is_one_sequential_range_write(
        self, enclave: Enclave
    ) -> None:
        """Group commit keeps the paper's leakage argument: the batch is one
        sequential range write (per-slot events W first..first+n-1), and the
        single ledger-head commit is enclave-side (unobservable)."""
        wal = WriteAheadLog(enclave)
        wal.append("S0")
        enclave.trace.clear()
        wal.append_many(["S1", "S2", "S3"])
        assert [(e.op, e.index) for e in enclave.trace.events] == [
            ("W", 1),
            ("W", 2),
            ("W", 3),
        ]


class TestTornTail:
    def test_crash_between_record_write_and_head_commit(
        self, enclave: Enclave
    ) -> None:
        """The durability-ordering window: a record written but whose head
        commit never ran is a detected-and-dropped torn tail, not a replayed
        statement and not an integrity failure."""
        wal = WriteAheadLog(enclave)
        wal.append("S0")
        wal.append("S1")
        sealed = enclave.seal(b"S2", wal._aad(2))
        enclave.untrusted.write(wal.region_name, 2, sealed)  # head: still 2
        statements, dropped = wal.read_committed()
        assert statements == ["S0", "S1"]
        assert dropped == 1

    def test_torn_batch_drops_whole_group(self, enclave: Enclave) -> None:
        """A crash before a group commit's single head commit strands the
        entire batch: recovery never sees half an ingest burst."""
        wal = WriteAheadLog(enclave)
        wal.append("S0")
        sealed = enclave.seal_many(
            [b"S1", b"S2"], [wal._aad(1), wal._aad(2)]
        )
        enclave.untrusted.write_range(wal.region_name, 1, sealed)
        statements, dropped = wal.read_committed()
        assert statements == ["S0"]
        assert dropped == 2

    def test_corrupt_tail_record_is_tampering_not_a_torn_write(
        self, enclave: Enclave
    ) -> None:
        wal = WriteAheadLog(enclave)
        wal.append("S0")
        bogus = enclave.seal(b"S9", wal._aad(9))  # wrong sequence binding
        enclave.untrusted.write(wal.region_name, 1, bogus)
        with pytest.raises(IntegrityError, match="uncommitted WAL tail"):
            wal.read_committed()

    def test_read_all_never_returns_past_the_head(
        self, enclave: Enclave
    ) -> None:
        wal = WriteAheadLog(enclave)
        wal.append("S0")
        sealed = enclave.seal(b"S1", wal._aad(1))
        enclave.untrusted.write(wal.region_name, 1, sealed)
        assert wal.read_all() == ["S0"]  # count is the head, never the slots

    def test_recover_reports_dropped_tail(self) -> None:
        db = ObliDB(cipher="null", wal=True, seed=9)
        db.sql("CREATE TABLE t (x INT) CAPACITY 4")
        db.sql("INSERT INTO t VALUES (1)")
        wal = db.wal
        assert wal is not None
        stranded = db.enclave.seal(
            b"INSERT INTO t VALUES (99)", wal._aad(wal.count)
        )
        db.enclave.untrusted.write(wal.region_name, wal.count, stranded)
        recovered = ObliDB(cipher="null", seed=10)
        report = recovered.recover(wal)
        assert (report.replayed, report.dropped_tail) == (2, 1)
        # The stranded statement was never acknowledged: dropping it is
        # correct, and the recovered state shows only the committed prefix.
        assert recovered.sql("SELECT * FROM t").rows == [(1,)]


class TestReplayChunkBoundaries:
    @pytest.mark.parametrize("count", [1023, 1024, 1025])
    def test_replay_at_chunk_edges(self, fast_enclave: Enclave, count) -> None:
        """_REPLAY_CHUNK-edge counts: order preserved, truncation and
        MAC-tamper of the final record detected in the last chunk."""
        wal = WriteAheadLog(fast_enclave)
        first, appended = wal.append_many([f"S{i}" for i in range(count)])
        assert (first, appended) == (0, count)
        statements = wal.read_all(expected_count=count)
        assert len(statements) == count
        assert statements[0] == "S0"
        assert statements[-1] == f"S{count - 1}"
        victim = count - 1
        block = fast_enclave.untrusted.peek(wal.region_name, victim)
        corrupted = block._replace(
            ciphertext=bytes([block.ciphertext[0] ^ 1]) + block.ciphertext[1:]
        )
        fast_enclave.untrusted.tamper(wal.region_name, victim, corrupted)
        with pytest.raises(IntegrityError):
            wal.read_all()
        fast_enclave.untrusted.tamper(wal.region_name, victim, None)
        with pytest.raises(IntegrityError, match="truncated"):
            wal.read_all()


class TestDatabaseIntegration:
    def test_writes_logged_reads_not(self) -> None:
        db = ObliDB(cipher="null", wal=True, seed=1)
        db.sql("CREATE TABLE t (x INT) CAPACITY 8")
        db.sql("INSERT INTO t VALUES (1)")
        db.sql("SELECT * FROM t")
        db.sql("UPDATE t SET x = 2 WHERE x = 1")
        db.sql("DELETE FROM t WHERE x = 2")
        assert db.wal is not None
        assert db.wal.count == 4  # CREATE + 3 writes; SELECT not logged

    def test_recovery_replays_to_same_state(self) -> None:
        db = ObliDB(cipher="null", wal=True, seed=2)
        db.sql("CREATE TABLE t (k INT, v STR(8)) CAPACITY 32 METHOD both KEY k")
        for i in range(10):
            db.sql(f"INSERT INTO t VALUES ({i}, 'v{i}')")
        db.sql("UPDATE t SET v = 'new' WHERE k = 3")
        db.sql("DELETE FROM t WHERE k = 7")

        recovered = ObliDB(cipher="null", seed=3)
        assert db.wal is not None
        replayed = recovered.recover_from(db.wal)
        assert replayed == db.wal.count
        assert sorted(recovered.sql("SELECT * FROM t").rows) == sorted(
            db.sql("SELECT * FROM t").rows
        )
        assert recovered.point_lookup("t", 3) == [(3, "new")]
        assert recovered.point_lookup("t", 7) == []

    def test_replay_into_nonempty_rejected(self) -> None:
        db = ObliDB(cipher="null", wal=True, seed=4)
        db.sql("CREATE TABLE t (x INT) CAPACITY 4")
        occupied = ObliDB(cipher="null", seed=5)
        occupied.sql("CREATE TABLE other (y INT) CAPACITY 4")
        assert db.wal is not None
        with pytest.raises(StorageError):
            occupied.recover_from(db.wal)

    def test_wal_disabled_by_default(self) -> None:
        db = ObliDB(cipher="null", seed=6)
        assert db.wal is None

    def test_typed_inserts_are_logged_and_replay(self) -> None:
        """insert()/insert_many() log replayable SQL — including strings
        the tokenizer needs escaped (quotes), which repr() would break."""
        db = ObliDB(cipher="null", wal=True, seed=7)
        db.sql("CREATE TABLE t (k INT, v STR(12)) CAPACITY 16")
        db.insert("t", (1, "it's"))
        db.insert_many("t", [(2, "a''b"), (3, "plain")])
        assert db.wal is not None
        assert db.wal.count == 4  # CREATE + 3 inserts
        recovered = ObliDB(cipher="null", seed=8)
        assert recovered.recover_from(db.wal) == 4
        assert sorted(recovered.sql("SELECT * FROM t").rows) == [
            (1, "it's"),
            (2, "a''b"),
            (3, "plain"),
        ]

    def test_partition_record_no_longer_replays(self) -> None:
        """``PARTITION TABLE`` left the grammar with table partitioning: a
        log holding one stops recovery at that record with the parser's
        typed error, after replaying the records before it."""
        db = ObliDB(cipher="null", wal=True, seed=9)
        db.sql("CREATE TABLE t (k INT) CAPACITY 8")
        db.sql("INSERT INTO t VALUES (1)")
        assert db.wal is not None
        db.wal.append("PARTITION TABLE t BY HASH (k) SHARDS 2")
        recovered = ObliDB(cipher="null", seed=10)
        with pytest.raises(SQLSyntaxError, match="unknown statement 'PARTITION'"):
            recovered.recover(db.wal)
        assert recovered.sql("SELECT * FROM t").rows == [(1,)]
