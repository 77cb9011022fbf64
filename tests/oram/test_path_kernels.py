"""The two kernels every Path ORAM access runs, against their references.

* :func:`~repro.oram.base.greedy_eviction_placements` (shared by Path and
  Ring ORAM) must make exactly the placements of the per-level
  O(stash × levels) rescan that ``ReferencePathORAM`` in
  ``tests/storage/test_datapath_equivalence.py`` runs, and leave exactly
  its remaining stash, in stash order.
* The bucket codec (one precompiled ``struct.Struct`` per ORAM) must pack
  the bytes of :func:`~repro.oram.path_oram._pack_bucket` and unpack what
  :func:`~repro.oram.path_oram._unpack_bucket` returns.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave import Enclave
from repro.oram.base import greedy_eviction_placements
from repro.oram.path_oram import PathORAM, _pack_bucket, _unpack_bucket

Stash = dict[int, tuple[int, bytes]]


def rescan_placements(stash: Stash, leaf: int, levels: int, per_level: int):
    """The per-level rescan: from the leaf up, each bucket takes the first
    ``per_level`` blocks, in stash order, whose path passes through it."""
    remaining = dict(stash)
    leaves = 1 << (levels - 1)

    def ancestor(block_leaf: int, depth: int) -> int:
        return ((leaves + block_leaf) >> (levels - 1 - depth)) - 1

    placements = [[] for _ in range(levels)]
    for depth in range(levels - 1, -1, -1):
        index = ancestor(leaf, depth)
        for block_id in list(remaining):
            if len(placements[depth]) >= per_level:
                break
            if ancestor(remaining[block_id][0], depth) == index:
                placements[depth].append((block_id, remaining.pop(block_id)))
    return placements, remaining


@st.composite
def eviction_inputs(draw):
    levels = draw(st.integers(2, 12))
    per_level = draw(st.sampled_from([1, 2, 4]))
    leaves = 1 << (levels - 1)
    leaf = draw(st.integers(0, leaves - 1))
    # Leaves near the access leaf share deep buckets with it, so deep levels
    # overflow and carry toward the root; uniform leaves mostly meet it at
    # the root.
    near = st.integers(max(0, leaf - 3), min(leaves - 1, leaf + 3))
    block_leaves = draw(
        st.lists(st.one_of(near, st.integers(0, leaves - 1)), max_size=3 * levels * per_level)
    )
    block_ids = draw(
        st.lists(
            st.integers(0, 10_000),
            min_size=len(block_leaves),
            max_size=len(block_leaves),
            unique=True,
        )
    )
    stash = {
        block_id: (block_leaf, block_id.to_bytes(2, "little"))
        for block_id, block_leaf in zip(block_ids, block_leaves)
    }
    return stash, leaf, levels, per_level


@settings(max_examples=200, deadline=None)
@given(eviction_inputs())
def test_eviction_matches_the_per_level_rescan(inputs) -> None:
    stash, leaf, levels, per_level = inputs
    placements, remaining = greedy_eviction_placements(dict(stash), leaf, levels, per_level)
    want_placements, want_remaining = rescan_placements(stash, leaf, levels, per_level)
    assert placements == want_placements
    assert list(remaining.items()) == list(want_remaining.items())


def test_overflow_carries_to_the_root_in_stash_order() -> None:
    """Eight blocks on the access leaf and Z = 2: the leaf and its parent
    take two each in stash order, the root two more, and two stay in the
    stash — the carry path the bucketing pass skips when nothing
    overflows."""
    levels, leaf = 3, 2
    stash = {block_id: (leaf, bytes([block_id])) for block_id in (9, 4, 7, 1, 8, 3, 5, 6)}
    placements, remaining = greedy_eviction_placements(dict(stash), leaf, levels, 2)
    assert [[block_id for block_id, _ in placed] for placed in placements] == [
        [8, 3],
        [7, 1],
        [9, 4],
    ]
    assert list(remaining) == [5, 6]
    assert (placements, remaining) == rescan_placements(stash, leaf, levels, 2)


def test_no_overflow_places_every_block_at_its_deepest_level() -> None:
    levels, leaf = 4, 5
    stash = {10: (5, b"a"), 11: (4, b"b"), 12: (0, b"c"), 13: (7, b"d")}
    placements, remaining = greedy_eviction_placements(dict(stash), leaf, levels, 4)
    assert placements == [
        [(12, (0, b"c"))],
        [(13, (7, b"d"))],
        [(11, (4, b"b"))],
        [(10, (5, b"a"))],
    ]
    assert remaining == {}


# ----------------------------------------------------------------------
# Bucket codec
# ----------------------------------------------------------------------
BLOCK_SIZE = 24


def _codec(bucket_size: int) -> PathORAM:
    enclave = Enclave(cipher="null", keep_trace_events=False)
    return PathORAM(enclave, 16, BLOCK_SIZE, bucket_size=bucket_size, rng=random.Random(1))


PAYLOADS = [
    b"",
    b"ab\x00\x00",
    b"\x00" * 5,
    bytes(range(1, BLOCK_SIZE + 1)),  # exactly block_size bytes
    b"payload",
]


@pytest.mark.parametrize("bucket_size", [1, 2, 4])
def test_codec_matches_the_reference_codec(bucket_size: int) -> None:
    oram = _codec(bucket_size)
    for count in range(bucket_size + 1):
        for shift in range(len(PAYLOADS)):
            entries = [
                (100 + slot, slot * 3, PAYLOADS[(shift + slot) % len(PAYLOADS)])
                for slot in range(count)
            ]
            items = [(block_id, (leaf, payload)) for block_id, leaf, payload in entries]
            packed = oram._pack(items)
            assert packed == _pack_bucket(entries, bucket_size, BLOCK_SIZE)
            unpacked = _unpack_bucket(packed, bucket_size, BLOCK_SIZE)
            assert oram._entries(packed) == unpacked == entries
    assert oram._empty_bucket == _pack_bucket([], bucket_size, BLOCK_SIZE)


def test_codec_unpacks_a_joined_path_bucket_by_bucket() -> None:
    """One ``iter_unpack`` over several buckets yields their slots in order."""
    oram = _codec(2)
    buckets = [
        [(1, 0, b"x\x00")],
        [],
        [(2, 1, bytes(BLOCK_SIZE)), (3, 1, b"")],
    ]
    plaintexts = [_pack_bucket(entries, 2, BLOCK_SIZE) for entries in buckets]
    slots = list(oram._slots(plaintexts))
    assert [block_id for block_id, *_ in slots] == [1, -1, -1, -1, 2, 3]
    assert [
        (block_id, leaf, payload[:length])
        for block_id, leaf, length, payload in slots
        if block_id >= 0
    ] == [entry for entries in buckets for entry in entries]
