"""Unit tests for the non-recursive Path ORAM."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.enclave import Enclave, ObliviousMemoryError, ORAMError
from repro.oram import DEFAULT_STASH_LIMIT, POSITION_MAP_BYTES_PER_BLOCK, PathORAM
from repro.oram.path_oram import _HEADER, treetop_levels_for


def make_oram(enclave: Enclave, capacity: int = 64, block_size: int = 32, seed: int = 1) -> PathORAM:
    return PathORAM(enclave, capacity, block_size, rng=random.Random(seed))


class TestCorrectness:
    def test_write_then_read(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave)
        oram.write(5, b"hello")
        assert oram.read(5) == b"hello"

    def test_unwritten_block_reads_none(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave)
        assert oram.read(3) is None

    def test_overwrite(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave)
        oram.write(0, b"a")
        oram.write(0, b"b")
        assert oram.read(0) == b"b"

    def test_many_random_operations(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave, capacity=50)
        rng = random.Random(42)
        mirror: dict[int, bytes] = {}
        for _ in range(1500):
            block = rng.randrange(50)
            if rng.random() < 0.5:
                payload = bytes([rng.randrange(256) for _ in range(8)])
                oram.write(block, payload)
                mirror[block] = payload
            else:
                assert oram.read(block) == mirror.get(block)

    def test_full_capacity(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave, capacity=32)
        for block in range(32):
            oram.write(block, block.to_bytes(4, "little"))
        for block in range(32):
            assert oram.read(block) == block.to_bytes(4, "little")

    def test_oversized_payload_rejected(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave, block_size=8)
        with pytest.raises(ValueError):
            oram.write(0, b"x" * 9)

    def test_bad_block_id_rejected(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave, capacity=8)
        with pytest.raises(IndexError):
            oram.read(8)
        with pytest.raises(IndexError):
            oram.write(-1, b"")

    def test_use_after_free_rejected(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave)
        oram.free()
        with pytest.raises(ORAMError):
            oram.read(0)

    def test_stash_stays_bounded(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave, capacity=128)
        rng = random.Random(7)
        for _ in range(2000):
            oram.write(rng.randrange(128), b"x")
        assert oram.stash_size <= 32  # well under the 256 limit


class TestObliviousness:
    @pytest.mark.parametrize("treetop_levels", [None, 0, 2])
    def test_access_touches_one_full_path(
        self, fast_enclave: Enclave, treetop_levels: int | None
    ) -> None:
        """Every access reads then writes back the `levels - k` buckets of
        one root→leaf path that lie below the `k` cached levels."""
        oram = PathORAM(
            fast_enclave, 64, 32, rng=random.Random(1), treetop_levels=treetop_levels
        )
        k = oram.treetop_levels
        assert k == (4 if treetop_levels is None else treetop_levels)
        fast_enclave.trace.clear()
        oram.read(0)
        events = fast_enclave.trace.events
        reads = [e.index for e in events if e.op == "R"]
        writes = [e.index for e in events if e.op == "W"]
        assert len(events) == 2 * (oram.levels - k)
        assert [e.op for e in events] == ["R"] * len(reads) + ["W"] * len(writes)
        # One path, top-down from level k to a leaf, then written back
        # bottom-up (path writeback).
        assert oram.bucket_level(reads[0]) == k
        assert oram.bucket_level(reads[-1]) == oram.levels - 1
        assert all(
            parent == (child - 1) // 2 for parent, child in zip(reads, reads[1:])
        )
        assert writes == reads[::-1]

    def test_reads_and_writes_same_access_count(self, fast_enclave: Enclave) -> None:
        oram = make_oram(fast_enclave)
        fast_enclave.trace.clear()
        oram.read(1)
        read_len = len(fast_enclave.trace)
        fast_enclave.trace.clear()
        oram.write(2, b"x")
        write_len = len(fast_enclave.trace)
        fast_enclave.trace.clear()
        oram.dummy_access()
        dummy_len = len(fast_enclave.trace)
        assert read_len == write_len == dummy_len

    def test_leaf_choice_uniform(self, fast_enclave: Enclave) -> None:
        """Repeated accesses to one hot block must cover leaves uniformly —
        the statistical core of Path ORAM's guarantee."""
        oram = make_oram(fast_enclave, capacity=16, seed=3)
        oram.write(0, b"hot")
        leaf_counter: Counter[int] = Counter()
        for _ in range(600):
            fast_enclave.trace.clear()
            oram.read(0)
            leaf_bucket = max(
                e.index for e in fast_enclave.trace.events if e.op == "R"
            )
            leaf_counter[leaf_bucket] += 1
        # Every leaf of the (small) tree should be hit a reasonable number
        # of times; with 600 draws over <=8 leaves, expect >=30 each.
        assert len(leaf_counter) >= 2
        assert min(leaf_counter.values()) >= 30

    def test_position_map_charged_to_oblivious_memory(self) -> None:
        enclave = Enclave(oblivious_memory_bytes=1 << 20, cipher="null")
        before = enclave.oblivious.in_use_bytes
        oram = PathORAM(enclave, 100, 16, rng=random.Random(1))
        assert (
            enclave.oblivious.in_use_bytes - before
            >= POSITION_MAP_BYTES_PER_BLOCK * 100
        )
        oram.free()
        assert enclave.oblivious.in_use_bytes == before

    def test_oblivious_memory_budget_enforced(self) -> None:
        tiny = Enclave(oblivious_memory_bytes=64, cipher="null")
        with pytest.raises(ObliviousMemoryError):
            PathORAM(tiny, 1000, 16, rng=random.Random(1))


class TestTreetopSizing:
    """`k` is a closed form in public sizes, charged with the stash."""

    def test_rule_is_the_largest_fit_below_the_leaves(self) -> None:
        assert treetop_levels_for(levels=10, bucket_bytes=100, budget_bytes=99) == 0
        assert treetop_levels_for(levels=10, bucket_bytes=100, budget_bytes=100) == 1
        assert treetop_levels_for(levels=10, bucket_bytes=100, budget_bytes=3099) == 4
        assert treetop_levels_for(levels=10, bucket_bytes=100, budget_bytes=3100) == 5
        assert treetop_levels_for(levels=3, bucket_bytes=100, budget_bytes=1 << 30) == 2
        assert treetop_levels_for(levels=10, bucket_bytes=100, budget_bytes=-5) == 0

    def test_default_fits_the_bytes_the_stash_reserves(self) -> None:
        """488-byte rows: 501-byte blocks, 2 084-byte buckets; 31 of them
        (5 levels) fit in the stash's 128 256 bytes, 63 do not."""
        enclave = Enclave(oblivious_memory_bytes=1 << 20, cipher="null")
        oram = PathORAM(enclave, 1758, 501, rng=random.Random(1))
        assert oram.treetop_levels == 5
        bucket_bytes = 4 * (_HEADER.size + 501)
        assert bucket_bytes == 2084
        assert oram.oblivious_memory_bytes() == (
            POSITION_MAP_BYTES_PER_BLOCK * 1758
            + DEFAULT_STASH_LIMIT * 501
            + 31 * bucket_bytes
        )
        assert enclave.oblivious.in_use_bytes == oram.oblivious_memory_bytes()
        oram.free()
        assert enclave.oblivious.in_use_bytes == 0

    def test_cache_shrinks_to_what_is_free_and_never_fails_a_build(self) -> None:
        """With room for the position map and stash and nothing more, the
        tree is the paper's; each further bucket's worth buys what it fits."""
        base = POSITION_MAP_BYTES_PER_BLOCK * 200 + DEFAULT_STASH_LIMIT * 16
        bucket_bytes = 4 * (_HEADER.size + 16)
        for spare, expected in ((0, 0), (bucket_bytes, 1), (3 * bucket_bytes, 2)):
            enclave = Enclave(oblivious_memory_bytes=base + spare, cipher="null")
            oram = PathORAM(enclave, 200, 16, rng=random.Random(1))
            assert oram.treetop_levels == expected
            assert oram.oblivious_memory_bytes() <= base + spare
            oram.write(3, b"x")
            assert oram.read(3) == b"x"

    def test_explicit_levels_are_validated_and_charged(self) -> None:
        enclave = Enclave(oblivious_memory_bytes=1 << 20, cipher="null")
        oram = PathORAM(enclave, 64, 32, rng=random.Random(1), treetop_levels=0)
        assert oram.levels == 5
        assert oram.oblivious_memory_bytes() == (
            POSITION_MAP_BYTES_PER_BLOCK * 64 + DEFAULT_STASH_LIMIT * 32
        )
        for bad in (-1, 5):
            with pytest.raises(ValueError):
                PathORAM(enclave, 64, 32, rng=random.Random(1), treetop_levels=bad)
        scarce = Enclave(oblivious_memory_bytes=oram.oblivious_memory_bytes(), cipher="null")
        with pytest.raises(ObliviousMemoryError):
            PathORAM(scarce, 64, 32, rng=random.Random(1), treetop_levels=4)
