"""Property-based tests for Path ORAM: it must behave as a plain array."""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave import Enclave
from repro.oram import PathORAM, RecursivePathORAM

CAPACITY = 24


def operations_strategy():
    """Sequences of (block_id, payload-or-None-for-read)."""
    return st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=CAPACITY - 1),
            st.one_of(st.none(), st.binary(min_size=0, max_size=12)),
        ),
        max_size=60,
    )


@settings(max_examples=40, deadline=None)
@given(ops=operations_strategy(), seed=st.integers(min_value=0, max_value=2**16))
def test_path_oram_equivalent_to_array(ops, seed) -> None:
    enclave = Enclave(oblivious_memory_bytes=1 << 20, cipher="null")
    oram = PathORAM(enclave, CAPACITY, block_size=12, rng=random.Random(seed))
    mirror: dict[int, bytes] = {}
    for block, payload in ops:
        if payload is None:
            assert oram.read(block) == mirror.get(block)
        else:
            oram.write(block, payload)
            mirror[block] = payload
    for block in range(CAPACITY):
        assert oram.read(block) == mirror.get(block)
    oram.free()
    assert enclave.oblivious.in_use_bytes == 0


@settings(max_examples=15, deadline=None)
@given(ops=operations_strategy(), seed=st.integers(min_value=0, max_value=2**16))
def test_recursive_oram_equivalent_to_array(ops, seed) -> None:
    enclave = Enclave(oblivious_memory_bytes=1 << 20, cipher="null")
    oram = RecursivePathORAM(enclave, CAPACITY, block_size=12, rng=random.Random(seed))
    mirror: dict[int, bytes] = {}
    for block, payload in ops:
        if payload is None:
            assert oram.read(block) == mirror.get(block)
        else:
            oram.write(block, payload)
            mirror[block] = payload
    oram.free()


@settings(max_examples=20, deadline=None)
@given(
    accesses=st.lists(st.integers(min_value=0, max_value=CAPACITY - 1), max_size=40),
    seed=st.integers(min_value=0, max_value=2**16),
    treetop_levels=st.sampled_from([None, 0, 1, 2, 3]),
)
def test_every_access_touches_constant_buckets(accesses, seed, treetop_levels) -> None:
    """Invariant: each ORAM access makes exactly 2*(levels - k) block
    transfers, k the levels cached in the enclave."""
    enclave = Enclave(oblivious_memory_bytes=1 << 20, cipher="null")
    oram = PathORAM(
        enclave,
        CAPACITY,
        block_size=8,
        rng=random.Random(seed),
        treetop_levels=treetop_levels,
    )
    assert oram.levels == 4
    for block in accesses:
        before = enclave.cost.block_ios
        oram.read(block)
        assert enclave.cost.block_ios - before == 2 * (
            oram.levels - oram.treetop_levels
        )
    oram.free()
