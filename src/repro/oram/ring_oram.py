"""Ring ORAM (Ren et al., USENIX Security 2015).

The paper's Related Work singles out Ring ORAM as the drop-in upgrade for
ObliDB's indexed storage: "using a newer scheme such as Ring ORAM would
result in performance improvements corresponding to the approximately 1.5×
improvement of Ring ORAM over Path ORAM" (Section 8).  This module provides
that alternative behind the same :class:`~repro.oram.base.ORAM` interface.

Ring ORAM's trick: buckets hold Z real slots plus S reserved dummy slots,
each sealed *individually*, and every slot's position within its bucket is
secretly permuted.  A logical access then reads only **one slot per bucket**
on the path — the target block where it lives, a fresh dummy everywhere
else — instead of Path ORAM's whole buckets.  Writes go to the stash.  The
path-write cost is amortised: every ``EVICTION_RATE`` accesses one path is
read in full and rewritten (round-robin over leaves in reverse-bit order),
and a bucket whose dummies run out is *early-reshuffled* individually.

Observable behaviour: each access touches one uniformly-distributed path at
one slot per bucket; evictions and reshuffles occur on a data-independent
schedule (access counter / per-bucket touch counts, both public).  Client
metadata (per-bucket permutations and valid bits) is charged to oblivious
memory alongside the position map.

Batched slot pipeline
---------------------
Slot choices depend only on enclave-side metadata, so every multi-slot
operation is planned first and then executed through the gather/scatter
primitives: the online read gathers its one-slot-per-bucket set with one
``untrusted.read_at`` and opens it in one ``open_many`` keystream pass; an
eviction gathers all Z restock reads of the whole path at once, plans the
leaf→root rewrite (greedy placement via a single pass that buckets stash
blocks by deepest eligible depth), and scatters it with one ``seal_many`` +
``write_at``; early reshuffles batch their restock gather and their
contiguous bucket rewrite the same way.  Each batched call records the
per-slot loop's exact adversary-visible sequence — enforced by the Ring
ORAM cases in ``tests/storage/test_datapath_equivalence.py``.

Every sealed slot is bound to its (region, slot index) *and* a per-slot
revision number via a :class:`~repro.enclave.integrity.RevisionLedger`, so
stale slot images cannot be replayed (same rollback protection as flat
storage and Path ORAM).
"""

from __future__ import annotations

import random
import struct
from typing import Sequence

from ..enclave.enclave import Enclave
from ..enclave.errors import ORAMError
from ..enclave.integrity import RevisionLedger
from ..oblivious.permute import generate_permutation
from .base import INIT_CHUNK_BLOCKS, ORAM, greedy_eviction_placements
from .path_oram import POSITION_MAP_BYTES_PER_BLOCK

#: Real slots per bucket.
DEFAULT_Z = 4
#: Reserved dummy slots per bucket (spent one per passing access before the
#: bucket needs an early reshuffle).
DEFAULT_S = 8
#: Accesses between eviction path writes (Ring ORAM's A parameter).
DEFAULT_EVICTION_RATE = 5
#: Stash bound.
DEFAULT_STASH_LIMIT = 384

_SLOT_HEADER = struct.Struct("<qqI")  # block_id, leaf, payload length

#: Oblivious-memory bytes per bucket of client metadata (permutation,
#: valid bits, touch count).
METADATA_BYTES_PER_BUCKET = 16


class _BucketMeta:
    """Enclave-side metadata for one bucket: who is where, what's used."""

    __slots__ = ("slots", "valid", "reads_since_shuffle")

    def __init__(self, z: int, s: int) -> None:
        # slots[i] = block_id occupying physical slot i, or -1 for a dummy.
        self.slots: list[int] = [-1] * (z + s)
        self.valid: list[bool] = [True] * (z + s)
        self.reads_since_shuffle = 0


class RingORAM(ORAM):
    """Ring ORAM over individually sealed slots, same interface as PathORAM."""

    def __init__(
        self,
        enclave: Enclave,
        capacity: int,
        block_size: int,
        z: int = DEFAULT_Z,
        s: int = DEFAULT_S,
        eviction_rate: int = DEFAULT_EVICTION_RATE,
        rng: random.Random | None = None,
        stash_limit: int = DEFAULT_STASH_LIMIT,
    ) -> None:
        if capacity < 1 or block_size < 1:
            raise ValueError("capacity and block_size must be positive")
        self._enclave = enclave
        self._capacity = capacity
        self._block_size = block_size
        self._z = z
        self._s = s
        self._slots_per_bucket = z + s
        self._eviction_rate = eviction_rate
        self._rng = rng if rng is not None else random.Random()
        self._stash_limit = stash_limit

        leaves = 1
        while leaves * z < capacity or leaves < 2:
            leaves *= 2
        self._leaves = leaves
        self._levels = leaves.bit_length()
        self._num_buckets = 2 * leaves - 1
        self._dummy_plaintext = _SLOT_HEADER.pack(-1, -1, 0) + b"\x00" * block_size

        self._region = enclave.fresh_region_name("oram-ring")
        enclave.untrusted.allocate_region(
            self._region, self._num_buckets * self._slots_per_bucket
        )
        # Slot AADs bind (region, slot index) AND a per-slot revision.
        self._ledger = RevisionLedger()

        self._client_bytes = (
            POSITION_MAP_BYTES_PER_BLOCK * capacity
            + METADATA_BYTES_PER_BUCKET * self._num_buckets
            + stash_limit * block_size
        )
        enclave.oblivious.allocate(self._client_bytes)

        self._position = [self._rng.randrange(leaves) for _ in range(capacity)]
        self._stash: dict[int, tuple[int, bytes]] = {}
        self._meta = [
            _BucketMeta(z, s) for _ in range(self._num_buckets)
        ]
        self._access_count = 0
        self._eviction_counter = 0  # reverse-bit-order leaf scheduler
        self._freed = False

        self._initialise_slots()

    def _initialise_slots(self) -> None:
        """Seal one dummy per slot, batched in bounded chunks: one
        ``seal_many`` keystream pass and one contiguous ``write_range`` per
        chunk (trace: W 0..num_slots-1, exactly the per-slot init loop's
        sequence)."""
        enclave = self._enclave
        total = self._num_buckets * self._slots_per_bucket
        for start in range(0, total, INIT_CHUNK_BLOCKS):
            count = min(INIT_CHUNK_BLOCKS, total - start)
            revisions, aads = self._ledger.stage_range(self._region, start, count)
            sealed = enclave.seal_many([self._dummy_plaintext] * count, aads)
            enclave.untrusted.write_range(self._region, start, sealed)
            self._ledger.commit_range(self._region, start, revisions)

    # ------------------------------------------------------------------
    # Slot-level IO (batched: plan slot sets first, then gather/scatter)
    # ------------------------------------------------------------------
    def _slot_index(self, bucket: int, slot: int) -> int:
        return bucket * self._slots_per_bucket + slot

    def _slot_plaintext(self, block_id: int, leaf: int, payload: bytes) -> bytes:
        return _SLOT_HEADER.pack(block_id, leaf, len(payload)) + payload.ljust(
            self._block_size, b"\x00"
        )

    def _read_slots(
        self, slot_indices: Sequence[int]
    ) -> list[tuple[int, int, bytes]]:
        """Gather + open a set of slots: one ``read_at``, one ``open_many``.

        Trace: one read per slot in the given order — identical to the
        per-slot read loop.
        """
        enclave = self._enclave
        sealed = enclave.untrusted.read_at(self._region, slot_indices)
        for index, block in zip(slot_indices, sealed):
            if block is None:
                raise ORAMError(f"missing slot {index} in {self._region}")
        plaintexts = enclave.open_many(
            sealed, self._ledger.open_at(self._region, slot_indices)
        )
        header = _SLOT_HEADER
        header_size = header.size
        out = []
        for plaintext in plaintexts:
            block_id, leaf, length = header.unpack_from(plaintext, 0)
            out.append((block_id, leaf, plaintext[header_size : header_size + length]))
        return out

    def _write_slots(
        self, slot_indices: Sequence[int], plaintexts: Sequence[bytes]
    ) -> None:
        """Seal + scatter a set of slots: one ``seal_many``, one ``write_at``."""
        revisions, aads = self._ledger.stage_at(self._region, slot_indices)
        self._enclave.untrusted.write_at(
            self._region, slot_indices, self._enclave.seal_many(plaintexts, aads)
        )
        self._ledger.commit_at(self._region, slot_indices, revisions)

    # ------------------------------------------------------------------
    # Geometry
    # ------------------------------------------------------------------
    def _path_buckets(self, leaf: int) -> list[int]:
        index = self._num_buckets - self._leaves + leaf
        path = [index]
        while index > 0:
            index = (index - 1) // 2
            path.append(index)
        path.reverse()
        return path

    def _ancestor_at_depth(self, leaf: int, depth: int) -> int:
        leaf_node = self._num_buckets - self._leaves + leaf + 1
        return (leaf_node >> (self._levels - 1 - depth)) - 1

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def levels(self) -> int:
        return self._levels

    @property
    def region_name(self) -> str:
        return self._region

    @property
    def stash_size(self) -> int:
        return len(self._stash)

    # ------------------------------------------------------------------
    # Core access
    # ------------------------------------------------------------------
    def _access(self, block_id: int | None, new_data: bytes | None) -> bytes | None:
        if self._freed:
            raise ORAMError("ORAM has been freed")
        self._enclave.cost.record_oram_access()

        if block_id is not None:
            self.check_block_id(block_id)
            leaf = self._position[block_id]
        else:
            leaf = self._rng.randrange(self._leaves)

        result: bytes | None = None
        if block_id is not None and block_id in self._stash:
            result = self._stash[block_id][1]

        # Read ONE slot per bucket on the path: the target if it lives
        # there, a fresh dummy otherwise (indistinguishable to the OS).
        # Slot choice is pure client metadata, so the whole set is planned
        # first and fetched with one gather + one keystream pass.
        path = self._path_buckets(leaf)
        targets: list[int] = []
        for bucket_index in path:
            meta = self._meta[bucket_index]
            target_slot = -1
            if block_id is not None:
                for slot, occupant in enumerate(meta.slots):
                    if occupant == block_id and meta.valid[slot]:
                        target_slot = slot
                        break
            if target_slot < 0:
                target_slot = self._pick_dummy_slot(meta)
            targets.append(target_slot)
        entries = self._read_slots(
            [self._slot_index(b, s) for b, s in zip(path, targets)]
        )
        for bucket_index, target_slot, (_, _, payload) in zip(path, targets, entries):
            meta = self._meta[bucket_index]
            if block_id is not None and meta.slots[target_slot] == block_id:
                result = payload
                # Invalidate: the block now lives in the stash.
                meta.slots[target_slot] = -1
                self._stash[block_id] = (leaf, payload)
            meta.valid[target_slot] = False
            meta.reads_since_shuffle += 1

        if block_id is not None:
            new_leaf = self._rng.randrange(self._leaves)
            self._position[block_id] = new_leaf
            if new_data is not None:
                if len(new_data) > self._block_size:
                    raise ValueError("payload exceeds block size")
                self._stash[block_id] = (new_leaf, new_data)
            elif block_id in self._stash:
                self._stash[block_id] = (new_leaf, self._stash[block_id][1])
        else:
            self._rng.randrange(self._leaves)  # burn a draw, like real ops

        # Early reshuffle: buckets that have exhausted their dummies.
        for bucket_index in path:
            if self._meta[bucket_index].reads_since_shuffle >= self._s:
                self._reshuffle_bucket(bucket_index)

        # Scheduled eviction.
        self._access_count += 1
        if self._access_count % self._eviction_rate == 0:
            self._evict_path(self._next_eviction_leaf())

        if len(self._stash) > self._stash_limit:
            raise ORAMError(
                f"stash overflow: {len(self._stash)} > {self._stash_limit}"
            )
        return result

    def _pick_dummy_slot(self, meta: _BucketMeta) -> int:
        for slot, occupant in enumerate(meta.slots):
            if occupant < 0 and meta.valid[slot]:
                return slot
        # All dummies consumed: any still-valid slot works (it will be
        # reshuffled right after); fall back to slot 0.
        for slot in range(len(meta.slots)):
            if meta.valid[slot]:
                return slot
        return 0

    def _next_eviction_leaf(self) -> int:
        """Deterministic reverse-bit-order leaf schedule (data-independent)."""
        bits = self._leaves.bit_length() - 1
        counter = self._eviction_counter
        self._eviction_counter = (self._eviction_counter + 1) % self._leaves
        if bits == 0:
            return 0
        reversed_bits = int(format(counter, f"0{bits}b")[::-1], 2)
        return reversed_bits

    def _restock_plan(self, bucket_index: int) -> tuple[list[int], list[int]]:
        """The bucket's restock read set: exactly Z slots (real first, padded
        with dummy reads), plus which of them are real.

        Reading a fixed Z slots — never the occupancy-dependent count — is
        what keeps eviction and reshuffle traffic data-independent, and is
        where Ring ORAM saves over reading whole (Z+S)-slot buckets.
        """
        meta = self._meta[bucket_index]
        real_slots = [
            slot
            for slot, occupant in enumerate(meta.slots)
            if occupant >= 0 and meta.valid[slot]
        ]
        pad_slots = [
            slot
            for slot, occupant in enumerate(meta.slots)
            if occupant < 0
        ]
        return (real_slots + pad_slots)[: self._z], real_slots

    def _restock_merge(
        self,
        to_read: list[int],
        real_slots: list[int],
        entries: list[tuple[int, int, bytes]],
    ) -> None:
        """Pull a restock gather's surviving real blocks into the stash."""
        stash = self._stash
        for slot, (block_id, bleaf, payload) in zip(to_read, entries):
            if slot in real_slots and block_id >= 0:
                stash.setdefault(block_id, (bleaf, payload))

    def _plan_reshuffle(
        self,
        to_read: list[int],
        real_slots: list[int],
        entries: list[tuple[int, int, bytes]],
    ) -> tuple[_BucketMeta, list[bytes]]:
        """Plan an in-place bucket reshuffle entirely from client state.

        The bucket's surviving real blocks are re-scattered across a fresh
        secret permutation (:func:`~repro.oblivious.permute.
        generate_permutation`) with the remaining slots refilled as fresh
        dummies — Ring ORAM's actual reshuffle, rather than the earlier
        dump-everything-to-the-stash shortcut, so reshuffles no longer
        inflate stash pressure between evictions.  Returns the bucket's
        fresh metadata and one plaintext per physical slot.  Blocks the
        stash already holds are dropped (the stash copy is newer).
        """
        survivors = []
        stash = self._stash
        for slot, (block_id, bleaf, payload) in zip(to_read, entries):
            if slot in real_slots and block_id >= 0 and block_id not in stash:
                survivors.append((block_id, bleaf, payload))
        fresh = _BucketMeta(self._z, self._s)
        perm = generate_permutation(self._slots_per_bucket, self._rng)
        plaintexts = [self._dummy_plaintext] * self._slots_per_bucket
        for (block_id, bleaf, payload), slot in zip(survivors, perm):
            fresh.slots[slot] = block_id
            plaintexts[slot] = self._slot_plaintext(block_id, bleaf, payload)
        return fresh, plaintexts

    def _reshuffle_bucket(self, bucket_index: int) -> None:
        """Read the bucket's Z restock slots, then rewrite it in place.

        One gather for the Z restock reads, then one seal+write pass over
        the bucket's contiguous slots (trace: the per-slot loop's
        ``W slot0..slotZ+S-1`` order) carrying the surviving real blocks at
        freshly permuted slots — contents indistinguishable from dummies,
        so the observable sequence is unchanged from the restock-and-clear
        form.
        """
        to_read, real_slots = self._restock_plan(bucket_index)
        entries = self._read_slots(
            [self._slot_index(bucket_index, s) for s in to_read]
        )
        fresh, plaintexts = self._plan_reshuffle(to_read, real_slots, entries)
        self._meta[bucket_index] = fresh
        enclave = self._enclave
        base = self._slot_index(bucket_index, 0)
        revisions, aads = self._ledger.stage_range(
            self._region, base, self._slots_per_bucket
        )
        sealed = enclave.seal_many(plaintexts, aads)
        enclave.untrusted.write_range(self._region, base, sealed)
        self._ledger.commit_range(self._region, base, revisions)

    def _evict_path(self, leaf: int) -> None:
        """Z reads per bucket + full rewrite of one path.

        The whole path's restock set is gathered with one ``read_at`` (per
        bucket, root→leaf, each bucket's Z planned slots in order — the
        per-slot loop's sequence), then the leaf→root rewrite is planned in
        the enclave and scattered with one ``seal_many`` + ``write_at``.
        """
        path = self._path_buckets(leaf)
        plans = [self._restock_plan(bucket_index) for bucket_index in path]
        slot_indices: list[int] = []
        for bucket_index, (to_read, _) in zip(path, plans):
            slot_indices.extend(self._slot_index(bucket_index, s) for s in to_read)
        entries = self._read_slots(slot_indices)
        offset = 0
        for (to_read, real_slots) in plans:
            self._restock_merge(
                to_read, real_slots, entries[offset : offset + len(to_read)]
            )
            offset += len(to_read)

        # Rewrite from the leaf up, placing stash blocks as deep as possible.
        # Greedy placement is planned in one pass over the stash (shared with
        # Path ORAM's eviction, see greedy_eviction_placements), then each
        # level's blocks land at the head of a fresh secret permutation.
        placements, self._stash = greedy_eviction_placements(
            self._stash, leaf, self._levels, self._z
        )
        write_indices: list[int] = []
        write_plaintexts: list[bytes] = []
        for depth in range(self._levels - 1, -1, -1):
            bucket_index = path[depth]
            placed = placements[depth]
            fresh = _BucketMeta(self._z, self._s)
            slot_order = list(range(self._slots_per_bucket))
            self._rng.shuffle(slot_order)  # the secret permutation
            for (block_id, (bleaf, payload)), slot in zip(placed, slot_order):
                fresh.slots[slot] = block_id
                write_indices.append(self._slot_index(bucket_index, slot))
                write_plaintexts.append(
                    self._slot_plaintext(block_id, bleaf, payload)
                )
            # Fill remaining slots with dummies.
            for slot in slot_order[len(placed) :]:
                write_indices.append(self._slot_index(bucket_index, slot))
                write_plaintexts.append(self._dummy_plaintext)
            self._meta[bucket_index] = fresh
        self._write_slots(write_indices, write_plaintexts)

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def read(self, block_id: int) -> bytes | None:
        return self._access(block_id, None)

    def write(self, block_id: int, data: bytes) -> None:
        self._access(block_id, data)

    def dummy_access(self) -> None:
        self._access(None, None)

    def free(self) -> None:
        if self._freed:
            return
        self._enclave.untrusted.free_region(self._region)
        self._ledger.forget_region(self._region)
        self._enclave.oblivious.release(self._client_bytes)
        self._freed = True
