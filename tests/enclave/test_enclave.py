"""Unit tests for enclave lifecycle, oblivious memory, cost counters and
batch crypto."""

from __future__ import annotations

import pytest

from repro.enclave import (
    AuthenticatedCipher,
    CostModel,
    CostWeights,
    Enclave,
    IntegrityError,
    NullCipher,
    ObliviousMemoryAccount,
    ObliviousMemoryError,
)

ROOT = b"\x07" * 32


class ScalarOnlyCipher:
    """A custom suite with no batch API: the enclave batches it per block."""

    def __init__(self) -> None:
        self._inner = NullCipher()

    def seal(self, plaintext: bytes, associated_data: bytes = b""):
        return self._inner.seal(plaintext, associated_data)

    def open(self, block, associated_data: bytes = b"") -> bytes:
        return self._inner.open(block, associated_data)


class TestObliviousMemory:
    def test_allocate_within_budget(self) -> None:
        account = ObliviousMemoryAccount(100)
        account.allocate(60)
        assert account.in_use_bytes == 60
        assert account.free_bytes == 40

    def test_budget_enforced(self) -> None:
        account = ObliviousMemoryAccount(100)
        account.allocate(80)
        with pytest.raises(ObliviousMemoryError):
            account.allocate(30)

    def test_peak_tracking(self) -> None:
        account = ObliviousMemoryAccount(100)
        account.allocate(70)
        account.release(50)
        account.allocate(10)
        assert account.peak_bytes == 70
        assert account.in_use_bytes == 30

    def test_over_release_rejected(self) -> None:
        account = ObliviousMemoryAccount(100)
        account.allocate(10)
        with pytest.raises(ValueError):
            account.release(20)

    def test_enclave_buffer_context(self) -> None:
        enclave = Enclave(oblivious_memory_bytes=100)
        with enclave.oblivious_buffer(90):
            assert enclave.oblivious.in_use_bytes == 90
            with pytest.raises(ObliviousMemoryError):
                enclave.oblivious.allocate(20)
        assert enclave.oblivious.in_use_bytes == 0

    def test_buffer_released_on_exception(self) -> None:
        enclave = Enclave(oblivious_memory_bytes=100)
        with pytest.raises(RuntimeError):
            with enclave.oblivious_buffer(50):
                raise RuntimeError("boom")
        assert enclave.oblivious.in_use_bytes == 0


class TestCostModel:
    def test_modeled_time_uses_weights(self) -> None:
        cost = CostModel(weights=CostWeights(untrusted_read_us=2.0))
        cost.record_read(10)
        assert cost.modeled_time_us() == pytest.approx(20.0)

    def test_snapshot_delta(self) -> None:
        cost = CostModel()
        cost.record_read(5)
        snapshot = cost.snapshot()
        cost.record_read(3)
        cost.record_write(2)
        delta = cost.delta_since(snapshot)
        assert delta.untrusted_reads == 3
        assert delta.untrusted_writes == 2

    def test_block_ios(self) -> None:
        cost = CostModel()
        cost.record_read(4)
        cost.record_write(6)
        assert cost.block_ios == 10

    def test_reset(self) -> None:
        cost = CostModel()
        cost.record_oram_access(7)
        cost.reset()
        assert cost.oram_accesses == 0


class TestEnclave:
    def test_seal_open_roundtrip(self) -> None:
        enclave = Enclave()
        assert enclave.open(enclave.seal(b"data", b"aad"), b"aad") == b"data"

    def test_null_cipher_option(self) -> None:
        enclave = Enclave(cipher="null")
        assert enclave.open(enclave.seal(b"data")) == b"data"

    def test_unknown_cipher_rejected(self) -> None:
        with pytest.raises(ValueError):
            Enclave(cipher="rot13")

    def test_fresh_region_names_unique(self) -> None:
        enclave = Enclave()
        names = {enclave.fresh_region_name("t") for _ in range(100)}
        assert len(names) == 100

    def test_cost_snapshot_helpers(self) -> None:
        enclave = Enclave()
        snapshot = enclave.cost_snapshot()
        enclave.untrusted.allocate_region("t", 1)
        enclave.untrusted.write("t", 0, enclave.seal(b"x"))
        delta = enclave.cost_delta(snapshot)
        assert delta.untrusted_writes == 1


def frames_and_aads(count: int) -> tuple[list[bytes], list[bytes]]:
    frames = [bytes([i % 256]) * (i % 40) for i in range(count)]
    return frames, [b"slot:%d" % i for i in range(count)]


class TestBatchCrypto:
    @pytest.mark.parametrize("count", [0, 1, 7, 300])
    @pytest.mark.parametrize("cipher", ["authenticated", "null"])
    def test_batch_round_trip_preserves_order(self, cipher: str, count: int) -> None:
        enclave = Enclave(cipher=cipher, key=ROOT)
        frames, aads = frames_and_aads(count)
        sealed = enclave.seal_many(frames, aads)
        assert len(sealed) == count
        assert [enclave.open(s, a) for s, a in zip(sealed, aads)] == frames
        assert enclave.open_many(sealed, aads) == frames

    @pytest.mark.parametrize("position", [0, 4, 7])
    def test_foreign_block_in_a_batch_is_an_integrity_error(self, position: int) -> None:
        enclave = Enclave(cipher="authenticated", key=ROOT)
        frames, aads = frames_and_aads(8)
        sealed = enclave.seal_many(frames, aads)
        sealed[position] = AuthenticatedCipher(b"\x99" * 32).seal(
            frames[position], aads[position]
        )
        with pytest.raises(IntegrityError):
            enclave.open_many(sealed, aads)

    def test_seal_many_never_repeats_a_nonce(self) -> None:
        """Equal frames across consecutive batches still get fresh nonces."""
        enclave = Enclave(cipher="authenticated", key=ROOT)
        nonces = [
            block.nonce
            for _ in range(10)
            for block in enclave.seal_many([b"same"] * 100, [b"aad"] * 100)
        ]
        assert len(set(nonces)) == len(nonces)

    def test_scalar_only_suite_is_batched_per_block(self) -> None:
        enclave = Enclave(cipher=ScalarOnlyCipher())
        frames, aads = frames_and_aads(5)
        sealed = enclave.seal_many(frames, aads)
        assert enclave.open_many(sealed, aads) == frames
        with pytest.raises(ValueError):
            enclave.seal_many(frames, aads[:-1])
        with pytest.raises(ValueError):
            enclave.open_many(sealed, aads[:-1])

