"""Failure-injection tests: the malicious OS attacks of Section 3.

The adversary controls untrusted memory.  Each test stages one of the
tampering strategies the paper's integrity machinery must catch:
modification, shuffling/transplanting, and rollback to stale state.
"""

from __future__ import annotations

import pytest

from repro.enclave import (
    Enclave,
    IntegrityError,
    ObliDBError,
    RollbackError,
    StorageError,
)
from repro.storage import FlatStorage, Schema
from repro.enclave.integrity import RevisionLedger


@pytest.fixture
def table(enclave: Enclave, kv_schema: Schema) -> FlatStorage:
    table = FlatStorage(enclave, kv_schema, 8)
    for i in range(4):
        table.fast_insert((i, f"row{i}"))
    return table


class TestTamperDetection:
    def test_modified_block_detected(self, enclave: Enclave, table: FlatStorage) -> None:
        sealed = enclave.untrusted.peek(table.region_name, 0)
        assert sealed is not None
        from repro.enclave.crypto import SealedBlock

        corrupted = SealedBlock(
            nonce=sealed.nonce,
            ciphertext=bytes([sealed.ciphertext[0] ^ 0xFF]) + sealed.ciphertext[1:],
            mac=sealed.mac,
        )
        enclave.untrusted.tamper(table.region_name, 0, corrupted)
        with pytest.raises(IntegrityError):
            table.read_row(0)

    def test_shuffled_blocks_detected(self, enclave: Enclave, table: FlatStorage) -> None:
        """Swapping two validly-MACed blocks must fail: identity binding."""
        a = enclave.untrusted.peek(table.region_name, 0)
        b = enclave.untrusted.peek(table.region_name, 1)
        enclave.untrusted.tamper(table.region_name, 0, b)
        enclave.untrusted.tamper(table.region_name, 1, a)
        with pytest.raises(IntegrityError):
            table.read_row(0)

    def test_cross_table_transplant_detected(
        self, enclave: Enclave, table: FlatStorage, kv_schema: Schema
    ) -> None:
        """A block from another table must not verify, even at the same
        index: the region name is part of the authenticated identity."""
        other = FlatStorage(enclave, kv_schema, 8)
        other.fast_insert((99, "evil"))
        foreign = enclave.untrusted.peek(other.region_name, 0)
        enclave.untrusted.tamper(table.region_name, 0, foreign)
        with pytest.raises(IntegrityError):
            table.read_row(0)

    def test_rollback_detected(self, enclave: Enclave, table: FlatStorage) -> None:
        """Serving a stale (previous-revision) copy must fail."""
        stale = enclave.untrusted.peek(table.region_name, 0)
        table.write_row(0, (0, "updated"))
        enclave.untrusted.tamper(table.region_name, 0, stale)
        with pytest.raises(IntegrityError):
            table.read_row(0)

    def test_honest_reads_still_pass(self, table: FlatStorage) -> None:
        assert table.read_row(0) == (0, "row0")
        table.write_row(0, (0, "v2"))
        assert table.read_row(0) == (0, "v2")


class TestRevisionLedger:
    def test_revisions_increment(self) -> None:
        ledger = RevisionLedger()
        assert ledger.next_revision("t", 0) == 1
        ledger.commit("t", 0, 1)
        assert ledger.next_revision("t", 0) == 2
        assert ledger.current("t", 0) == 1

    def test_verify_accepts_current(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("t", 0, 3)
        ledger.verify("t", 0, 3)

    def test_verify_rejects_stale(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("t", 0, 3)
        with pytest.raises(RollbackError):
            ledger.verify("t", 0, 2)

    def test_verify_rejects_future(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("t", 0, 3)
        with pytest.raises(RollbackError):
            ledger.verify("t", 0, 4)

    def test_forget_region(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("t", 0, 5)
        ledger.forget_region("t")
        assert ledger.current("t", 0) == 0

    def test_associated_data_binds_everything(self) -> None:
        ledger = RevisionLedger()
        base = ledger.associated_data("t", 0, 1)
        assert ledger.associated_data("u", 0, 1) != base  # region
        assert ledger.associated_data("t", 1, 1) != base  # index
        assert ledger.associated_data("t", 0, 2) != base  # revision


class TestLedgerGatherScatter:
    """The ``*_at`` batch APIs must agree with the scalar calls they fuse."""

    INDICES = [0, 2, 5, 12, 3]  # heap-ordered path: non-contiguous, unordered

    def test_open_at_matches_scalar_aads(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("t", 2, 4)
        ledger.commit("t", 12, 1)
        assert ledger.open_at("t", self.INDICES) == [
            ledger.associated_data("t", i, ledger.current("t", i))
            for i in self.INDICES
        ]

    def test_stage_at_matches_scalar_and_commits_nothing(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("t", 5, 7)
        revisions, aads = ledger.stage_at("t", self.INDICES)
        assert revisions == [ledger.next_revision("t", i) for i in self.INDICES]
        assert aads == [
            ledger.associated_data("t", i, r)
            for i, r in zip(self.INDICES, revisions)
        ]
        # Nothing committed yet: staging again yields the same revisions.
        assert ledger.stage_at("t", self.INDICES)[0] == revisions

    def test_commit_at_round_trip(self) -> None:
        ledger = RevisionLedger()
        revisions, _ = ledger.stage_at("t", self.INDICES)
        ledger.commit_at("t", self.INDICES, revisions)
        for index, revision in zip(self.INDICES, revisions):
            assert ledger.current("t", index) == revision

    def test_at_and_range_agree_on_contiguous_runs(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("t", 1, 9)
        assert ledger.open_at("t", range(4)) == ledger.open_range("t", 0, 4)
        assert ledger.stage_at("t", range(4)) == tuple(
            ledger.stage_range("t", 0, 4)
        )


class TestStepOperations:
    """Cross-region (region, index) step batches used by the interleaved
    exchange must agree with the scalar and single-region batch APIs."""

    STEPS = [("a", 0), ("b", 3), ("a", 5), ("b", 1)]

    def test_open_steps_matches_scalar(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("a", 5, 4)
        ledger.commit("b", 3, 2)
        assert ledger.open_steps(self.STEPS) == [
            ledger.associated_data(region, index, ledger.current(region, index))
            for region, index in self.STEPS
        ]

    def test_stage_and_commit_steps_round_trip(self) -> None:
        ledger = RevisionLedger()
        ledger.commit("b", 1, 6)
        revisions, aads = ledger.stage_steps(self.STEPS)
        assert revisions == [
            ledger.next_revision(region, index) for region, index in self.STEPS
        ]
        assert aads == [
            ledger.associated_data(region, index, revision)
            for (region, index), revision in zip(self.STEPS, revisions)
        ]
        # Nothing committed by staging.
        assert ledger.stage_steps(self.STEPS)[0] == revisions
        ledger.commit_steps(self.STEPS, revisions)
        for (region, index), revision in zip(self.STEPS, revisions):
            assert ledger.current(region, index) == revision

    def test_stage_steps_rejects_duplicates(self) -> None:
        # Typed (StorageError, catchable as ObliDBError), not a bare
        # ValueError: callers distinguish library invariants from Python
        # argument errors.
        ledger = RevisionLedger()
        with pytest.raises(StorageError):
            ledger.stage_steps([("a", 0), ("b", 0), ("a", 0)])
        with pytest.raises(ObliDBError):
            ledger.stage_at("a", [0, 0])
