"""Unit tests for Ring ORAM."""

from __future__ import annotations

import random

import pytest

from repro.enclave import Enclave, ORAMError
from repro.oram import PathORAM, RingORAM


def make(enclave: Enclave, capacity: int = 64, seed: int = 1, **kwargs) -> RingORAM:
    return RingORAM(enclave, capacity, block_size=24, rng=random.Random(seed), **kwargs)


class TestRingCorrectness:
    def test_write_then_read(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave)
        oram.write(5, b"hello")
        assert oram.read(5) == b"hello"

    def test_unwritten_reads_none(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave)
        assert oram.read(3) is None

    def test_overwrite(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave)
        oram.write(0, b"a")
        oram.write(0, b"b")
        assert oram.read(0) == b"b"

    def test_many_random_operations(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave, capacity=50)
        rng = random.Random(42)
        mirror: dict[int, bytes] = {}
        for _ in range(2500):
            block = rng.randrange(50)
            if rng.random() < 0.5:
                payload = bytes([rng.randrange(256) for _ in range(8)])
                oram.write(block, payload)
                mirror[block] = payload
            else:
                assert oram.read(block) == mirror.get(block)

    def test_full_capacity(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave, capacity=32)
        for block in range(32):
            oram.write(block, block.to_bytes(4, "little"))
        for block in range(32):
            assert oram.read(block) == block.to_bytes(4, "little")

    def test_stash_bounded(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave, capacity=128)
        rng = random.Random(7)
        peak = 0
        for _ in range(3000):
            oram.write(rng.randrange(128), b"x")
            peak = max(peak, oram.stash_size)
        assert peak <= 128

    def test_bad_block_id(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave, capacity=8)
        with pytest.raises(IndexError):
            oram.read(8)

    def test_oversized_payload(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave)
        with pytest.raises(ValueError):
            oram.write(0, b"x" * 25)

    def test_use_after_free(self, fast_enclave: Enclave) -> None:
        oram = make(fast_enclave)
        oram.free()
        with pytest.raises(ORAMError):
            oram.read(0)


class TestRingCostProfile:
    def test_online_read_cheaper_than_path(self, fast_enclave: Enclave) -> None:
        """The headline: Ring's per-access byte traffic undercuts that of
        the paper's Path ORAM (no treetop: `2·levels` buckets an access).

        Each Path IO moves a Z-slot bucket; each Ring IO moves one slot, so
        bytes = IOs (ring) vs IOs x Z (path)."""
        capacity, probes = 128, 200
        ring_enclave = Enclave(oblivious_memory_bytes=1 << 22, cipher="null")
        ring = RingORAM(ring_enclave, capacity, 24, rng=random.Random(1))
        path_enclave = Enclave(oblivious_memory_bytes=1 << 22, cipher="null")
        path = PathORAM(
            path_enclave, capacity, 24, rng=random.Random(1), treetop_levels=0
        )
        rng = random.Random(2)
        for block in range(capacity):
            ring.write(block, b"x")
            path.write(block, b"x")
        ring_before = ring_enclave.cost.block_ios
        path_before = path_enclave.cost.block_ios
        for _ in range(probes):
            block = rng.randrange(capacity)
            ring.read(block)
            path.read(block)
        ring_bytes = (ring_enclave.cost.block_ios - ring_before) * 1
        path_bytes = (path_enclave.cost.block_ios - path_before) * 4  # Z slots
        assert path_bytes == probes * 2 * path.levels * 4
        assert ring_bytes < path_bytes
        # Section 8's "approximately 1.5x" improvement.
        assert path_bytes / ring_bytes >= 1.3

    def test_read_write_dummy_same_cost(self, fast_enclave: Enclave) -> None:
        """Reads, writes, and dummies are indistinguishable in cost.

        Compared at the same access-counter phase so the amortised eviction
        (every A-th access) lands identically."""
        oram = make(fast_enclave)
        rate = oram._eviction_rate
        costs = []
        for operation in (lambda: oram.read(1), lambda: oram.write(2, b"x"),
                          lambda: oram.dummy_access()):
            # Align to the start of an eviction period.
            while oram._access_count % rate != 0:
                oram.dummy_access()
            before = fast_enclave.cost.block_ios
            operation()
            costs.append(fast_enclave.cost.block_ios - before)
        assert len(set(costs)) == 1, costs

    def test_client_state_charged_to_oblivious_memory(self) -> None:
        enclave = Enclave(oblivious_memory_bytes=1 << 22, cipher="null")
        before = enclave.oblivious.in_use_bytes
        oram = RingORAM(enclave, 64, 16, rng=random.Random(1))
        assert enclave.oblivious.in_use_bytes > before
        oram.free()
        assert enclave.oblivious.in_use_bytes == before


class TestRingInTree:
    def test_btree_over_ring_oram(self, fast_enclave: Enclave, kv_schema) -> None:
        from repro.storage import index_tree

        index = index_tree(
            fast_enclave, kv_schema, "key", 96,
            rng=random.Random(3), oram_kind="ring",
        )
        keys = list(range(60))
        random.Random(5).shuffle(keys)
        for key in keys:
            index.insert((key, f"v{key}"))
        assert index.search(17) == [(17, "v17")]
        assert index.delete(17) == 1
        assert index.search(17) == []
        assert [row[0] for row in index.range_scan(40, 45)] == list(range(40, 46))
