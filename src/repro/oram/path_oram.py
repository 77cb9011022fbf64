"""Non-recursive Path ORAM (Stefanov et al., CCS 2013).

Blocks live in a complete binary tree of buckets stored in untrusted memory;
each bucket holds up to ``bucket_size`` (Z) blocks, sealed together as one
encrypted unit.  The client state — position map and stash — resides in the
enclave's oblivious memory, costing 8 bytes per logical block for the map
(the figure quoted in the paper's Figure 3 caption) plus a small stash.

Every logical access:

1. looks up (or assigns) the block's leaf in the position map,
2. reads the entire root→leaf path into the stash,
3. remaps the block to a fresh uniformly random leaf,
4. writes the same path back, greedily evicting stash blocks to the deepest
   bucket still on the path to their assigned leaf.

Reads and writes are therefore indistinguishable, and the observable trace
of each access is one uniformly random path — independent of which logical
block was touched.  ``dummy_access`` performs steps 2–4 for a random leaf
without touching any block, which is what lets the B+ tree pad its
operations to worst-case counts.

Batched path pipeline
---------------------
Paths are heap-ordered and non-contiguous, so the whole access rides on the
gather/scatter primitives: one ``untrusted.read_at`` over the root→leaf
indices, one ``open_many`` with the path's per-bucket associated data, the
stash merge, a single-pass greedy eviction (stash blocks are bucketed by
their deepest eligible path depth instead of rescanning the stash once per
level), one ``seal_many``, and one ``write_at`` in leaf→root order.  The
adversary-visible access sequence is bit-identical to the per-bucket loop
(``R root..leaf`` then ``W leaf..root``); only interpreter overhead is
amortized — enforced by the ORAM cases in
``tests/storage/test_datapath_equivalence.py``.

What is left per access is the path's own work:
- the path's bucket indices — cached prefix, suffix, and the leaf→level-``k``
  write order — are split once per leaf and memoized, so no list is built
  and reversed per access;
- a bucket is packed and unpacked by one precompiled ``struct.Struct`` of
  ``Z`` slots of ``<qqI{block_size}s`` (the bytes of :func:`_pack_bucket`,
  which stays as the reference codec); a suffix is unpacked by one
  ``iter_unpack`` over its joined non-empty plaintexts, and an empty bucket
  is one precomputed plaintext;
- the eviction sorts only when a level overflows
  (:func:`~repro.oram.base.greedy_eviction_placements`).

Treetop caching
---------------
The top ``k`` levels of the bucket tree (``2^k - 1`` buckets, every access
crosses all ``k`` of them) are kept as plaintext entries in oblivious memory
beside the stash, and an access reads, opens, seals and writes only the path
suffix — levels ``k..L-1``.  ``k`` is a closed form in public sizes
(:func:`treetop_levels_for`), charged to the oblivious-memory account with
the stash.  Bucket indices and the region's size do not change (slots
``0..2^k-2`` are never written) and cached buckets merge into the stash
root-first exactly where opened ones did, so under one rng the payloads,
position map, stash and evictions are those of ``k = 0`` and the trace is the
``k = 0`` trace with every access to an index ``< 2^k - 1`` deleted: still
one uniform leaf per access, independent of the block touched.
``treetop_levels=0`` is the paper's construction.

Failure atomicity
-----------------
An access commits its enclave state — stash, position map, treetop, ledger
revisions — only after the whole path is written back, so a failed read or
open leaves the store exactly as it was and the statement may be retried.
A transient host failure *inside* the write-back is absorbed here: the
sealed path is re-issued once (the same ciphertexts to the same slots,
idempotent), because no caller above can re-run an access whose prefix has
already landed.

Every sealed bucket is bound to its tree position *and* a per-bucket
revision number through a :class:`~repro.enclave.integrity.RevisionLedger`,
so a malicious OS can neither transplant buckets between positions nor
replay an old (validly MACed) bucket image — the same rollback protection
flat storage has.  The ledger's ``open_at``/``stage_at``/``commit_at``
fetch a whole path's associated data in one call each.
"""

from __future__ import annotations

import random
import struct
from itertools import chain
from typing import Iterable, Iterator

from ..enclave.enclave import Enclave
from ..enclave.errors import ORAMError, TransientStorageError
from ..enclave.integrity import RevisionLedger
from .base import INIT_CHUNK_BLOCKS, ORAM, greedy_eviction_placements

#: Bytes of oblivious memory per position-map entry (paper, Figure 3 caption).
POSITION_MAP_BYTES_PER_BLOCK = 8

#: Default bucket capacity Z; Z=4 gives negligible stash overflow probability.
DEFAULT_BUCKET_SIZE = 4

#: Stash slots reserved in oblivious memory (blocks, not bytes).
DEFAULT_STASH_LIMIT = 256

_HEADER = struct.Struct("<qqI")  # block_id, leaf, payload length

_EMPTY_HEADER = _HEADER.pack(-1, -1, 0)


def treetop_levels_for(levels: int, bucket_bytes: int, budget_bytes: int) -> int:
    """The treetop rule: the most top levels whose ``2^k - 1`` plaintext
    buckets fit in ``budget_bytes`` — at most ``levels - 1``, so every
    access still reads and writes its leaf."""
    k = 0
    while k + 1 < levels and ((2 << k) - 1) * bucket_bytes <= budget_bytes:
        k += 1
    return k


def _pack_bucket(
    entries: list[tuple[int, int, bytes]], bucket_size: int, block_size: int
) -> bytes:
    """Serialise a bucket to a fixed-size plaintext.

    Fixed size matters: sealed buckets must be the same length whether they
    hold zero or Z real blocks, or the adversary could count occupancy.
    """
    parts: list[bytes] = []
    for block_id, leaf, payload in entries:
        parts.append(_HEADER.pack(block_id, leaf, len(payload)))
        parts.append(payload.ljust(block_size, b"\x00"))
    empty = _EMPTY_HEADER + b"\x00" * block_size
    parts.extend([empty] * (bucket_size - len(entries)))
    return b"".join(parts)


def _unpack_bucket(
    data: bytes, bucket_size: int, block_size: int
) -> list[tuple[int, int, bytes]]:
    """Parse a bucket plaintext back into (block_id, leaf, payload) entries."""
    entries: list[tuple[int, int, bytes]] = []
    stride = _HEADER.size + block_size
    for i in range(bucket_size):
        offset = i * stride
        block_id, leaf, length = _HEADER.unpack_from(data, offset)
        if block_id < 0:
            continue
        start = offset + _HEADER.size
        entries.append((block_id, leaf, data[start : start + length]))
    return entries


class PathORAM(ORAM):
    """Path ORAM over one untrusted region, client state in oblivious memory.

    Parameters
    ----------
    enclave:
        The enclave providing untrusted memory, crypto, and the oblivious
        memory account the position map is charged to.
    capacity:
        Number of logical blocks (N).  The tree has enough leaves that load
        stays below the Z·leaves bound.
    block_size:
        Payload bytes per logical block.
    rng:
        Randomness source for leaf assignment; injectable for reproducible
        tests.
    charge_position_map:
        Whether to charge 8·N bytes of oblivious memory for the position map
        (disabled by the recursive construction, which stores it elsewhere).
    treetop_levels:
        Top levels of the bucket tree cached in oblivious memory (module
        docstring).  ``None`` applies the rule — what fits in as many bytes
        as the stash reserves (``stash_limit × block_size``) and in the
        oblivious memory still free, so the cache never turns a
        construction that fits into one that does not; ``0`` is the
        paper's construction.
    """

    def __init__(
        self,
        enclave: Enclave,
        capacity: int,
        block_size: int,
        bucket_size: int = DEFAULT_BUCKET_SIZE,
        rng: random.Random | None = None,
        region_name: str | None = None,
        stash_limit: int = DEFAULT_STASH_LIMIT,
        charge_position_map: bool = True,
        treetop_levels: int | None = None,
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be positive")
        if block_size < 1:
            raise ValueError("block_size must be positive")
        self._enclave = enclave
        self._capacity = capacity
        self._block_size = block_size
        self._bucket_size = bucket_size
        self._rng = rng if rng is not None else random.Random()
        self._stash_limit = stash_limit

        # Tree geometry: enough leaves to hold capacity blocks at bucket load
        # <= Z, i.e. leaves >= ceil(N / Z) rounded to a power of two, and at
        # least 2 so there is a real path.
        leaves = 1
        while leaves * bucket_size < capacity or leaves < 2:
            leaves *= 2
        self._leaves = leaves
        self._levels = leaves.bit_length()  # root level 0 .. leaf level L
        self._num_buckets = 2 * leaves - 1
        # The bucket codec: Z slots of (block id, leaf, length, payload),
        # the bytes of _pack_bucket; ``_empty_tails[n]`` pads n entries.
        self._bucket = struct.Struct("<" + f"qqI{block_size}s" * bucket_size)
        self._empty_tails = tuple(
            (-1, -1, 0, b"") * (bucket_size - n) for n in range(bucket_size + 1)
        )
        self._empty_bucket = self._bucket.pack(*self._empty_tails[0])
        if treetop_levels is not None and not 0 <= treetop_levels < self._levels:
            raise ValueError(
                f"treetop_levels must be in 0..{self._levels - 1}, "
                f"got {treetop_levels}"
            )

        self._region = region_name or enclave.fresh_region_name("oram")
        enclave.untrusted.allocate_region(self._region, self._num_buckets)
        # Bucket AADs bind tree position AND a per-bucket revision number,
        # so stale bucket images cannot be replayed (rollback protection).
        self._ledger = RevisionLedger()

        # Client state — position map, stash, treetop — charged to
        # oblivious memory as one reservation.
        posmap_bytes = (
            POSITION_MAP_BYTES_PER_BLOCK * capacity if charge_position_map else 0
        )
        stash_bytes = stash_limit * block_size
        bucket_bytes = self._bucket.size
        if treetop_levels is None:
            spare = enclave.oblivious.free_bytes - posmap_bytes - stash_bytes
            treetop_levels = treetop_levels_for(
                self._levels, bucket_bytes, min(stash_bytes, spare)
            )
        self._treetop_levels = treetop_levels
        # leaf -> (cached prefix, suffix, suffix leaf first); see _split_path.
        self._paths: dict[int, tuple[tuple[int, ...], ...]] = {}
        cached_buckets = (1 << treetop_levels) - 1
        self._oblivious_bytes = posmap_bytes + stash_bytes + cached_buckets * bucket_bytes
        enclave.oblivious.allocate(self._oblivious_bytes)
        self._position: list[int] = [
            self._rng.randrange(self._leaves) for _ in range(capacity)
        ]
        self._stash: dict[int, tuple[int, bytes]] = {}  # id -> (leaf, payload)
        # Cached bucket i, as stash items: [(id, (leaf, payload)), ...].
        self._treetop: list[list[tuple[int, tuple[int, bytes]]]] = [
            [] for _ in range(cached_buckets)
        ]
        self._freed = False

        # Initialise every bucket so reads before first write are well formed.
        self._seal_buckets({})

    def _seal_buckets(self, contents: dict[int, list[tuple[int, int, bytes]]]) -> None:
        """Fill every bucket of the tree in index order — ``contents[i]``
        into bucket ``i``, an empty bucket where ``i`` is absent.  The
        treetop's buckets are set in place; the rest are sealed in bounded
        chunks: one ``seal_many`` keystream pass and one contiguous
        ``write_range`` per chunk (trace: W 2^k-1..num_buckets-1, exactly
        the per-bucket loop's sequence, whatever ``contents`` holds), at
        most ``INIT_CHUNK_BLOCKS`` plaintext buckets resident."""
        enclave = self._enclave
        placed = {
            index: [(block_id, (leaf, payload)) for block_id, leaf, payload in entries]
            for index, entries in contents.items()
        }
        empty = self._empty_bucket
        treetop = self._treetop
        for index in range(len(treetop)):
            treetop[index] = placed.get(index, [])
        for start in range(len(treetop), self._num_buckets, INIT_CHUNK_BLOCKS):
            count = min(INIT_CHUNK_BLOCKS, self._num_buckets - start)
            plaintexts = [
                self._pack(placed[index]) if index in placed else empty
                for index in range(start, start + count)
            ]
            revisions, aads = self._ledger.stage_range(self._region, start, count)
            sealed = enclave.seal_many(plaintexts, aads)
            enclave.untrusted.write_range(self._region, start, sealed)
            self._ledger.commit_range(self._region, start, revisions)

    # ------------------------------------------------------------------
    # Geometry helpers (heap-ordered complete binary tree)
    # ------------------------------------------------------------------
    def _path_indices(self, leaf: int) -> list[int]:
        """Bucket indices from root to the given leaf."""
        index = self._num_buckets - self._leaves + leaf  # leaf bucket index
        path = [index]
        while index > 0:
            index = (index - 1) // 2
            path.append(index)
        path.reverse()
        return path

    def _split_path(self, leaf: int) -> tuple[tuple[int, ...], ...]:
        """The path to ``leaf`` as an access uses it: the cached prefix and
        the suffix root first, and the suffix leaf first (the write-back
        order).  A function of public geometry, memoized per leaf — at most
        one entry per leaf, a few hundred bytes each."""
        indices = self._path_indices(leaf)
        k = self._treetop_levels
        suffix = tuple(indices[k:])
        split = self._paths[leaf] = (tuple(indices[:k]), suffix, suffix[::-1])
        return split

    def _ancestor_at_depth(self, leaf: int, depth: int) -> int:
        """Bucket index at ``depth`` on the root→``leaf`` path.

        Uses 1-based heap arithmetic: the ancestor of node ``n`` that sits
        ``k`` levels higher is ``n >> k``.
        """
        leaf_node = self._num_buckets - self._leaves + leaf + 1  # 1-based
        return (leaf_node >> (self._levels - 1 - depth)) - 1

    def bucket_level(self, index: int) -> int:
        """Tree depth of a bucket index (0 = root); used by trace analysis."""
        return (index + 1).bit_length() - 1

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def block_size(self) -> int:
        return self._block_size

    @property
    def region_name(self) -> str:
        return self._region

    @property
    def levels(self) -> int:
        return self._levels

    @property
    def treetop_levels(self) -> int:
        """Top levels held in oblivious memory (``k``; public sizes fix it)."""
        return self._treetop_levels

    @property
    def stash_size(self) -> int:
        """Current number of blocks in the stash (should stay small)."""
        return len(self._stash)

    def oblivious_memory_bytes(self) -> int:
        """Oblivious memory this ORAM holds: position map, stash, treetop."""
        return self._oblivious_bytes

    def resident_blocks(self) -> Iterator[tuple[int, bytes]]:
        """``(block id, payload)`` of every block held inside the enclave —
        the stash, then the treetop — which no bucket scan will find."""
        yield from ((block_id, entry[1]) for block_id, entry in self._stash.items())
        for bucket in self._treetop:
            yield from ((block_id, entry[1]) for block_id, entry in bucket)

    # ------------------------------------------------------------------
    # Core access
    # ------------------------------------------------------------------
    def _access(
        self,
        block_id: int | None,
        new_data: bytes | None,
        mutate=None,
    ) -> bytes | None:
        """One Path ORAM access; ``block_id is None`` means a dummy access.

        ``mutate``, if given, maps the current payload (or ``None``) to the
        new payload within the same access — a read-modify-write in one
        observable operation, used by the recursive position map.

        The path suffix below the treetop is handled in one batched
        pipeline: gather → ``open_many`` → stash merge → single-pass greedy
        eviction → ``seal_many`` → scatter.  Trace: ``R level k..leaf,
        W leaf..level k``, identical to the per-bucket loop.  ``self`` is
        not touched until the path is written back (module docstring,
        *Failure atomicity*).
        """
        if self._freed:
            raise ORAMError("ORAM has been freed")
        enclave = self._enclave
        enclave.cost.record_oram_access()

        if block_id is not None:
            self.check_block_id(block_id)
            leaf = self._position[block_id]
        else:
            leaf = self._rng.randrange(self._leaves)

        region = self._region
        cached, suffix, write_indices = self._paths.get(leaf) or self._split_path(leaf)

        # Read the path into a working stash, root first: the cached levels
        # from the treetop, the rest in one gather and one keystream pass.
        sealed = enclave.untrusted.read_at(region, suffix)
        if None in sealed:
            raise ORAMError(f"missing bucket {suffix[sealed.index(None)]} in {region}")
        plaintexts = enclave.open_many(sealed, self._ledger.open_at(region, suffix))
        stash = dict(self._stash)
        treetop = self._treetop
        stash.update(chain.from_iterable(map(treetop.__getitem__, cached)))
        empty = self._empty_bucket  # holds no entry: skip its slots
        for bid, bleaf, length, payload in self._slots(filter(empty.__ne__, plaintexts)):
            if bid >= 0:
                stash[bid] = (bleaf, payload[:length])

        result: bytes | None = None
        new_leaf = self._rng.randrange(self._leaves)
        if block_id is not None:
            # Remap to the fresh leaf; serve the read from the stash.  (A
            # dummy burns the same draw, so real and dummy accesses consume
            # randomness identically.)
            if block_id in stash:
                _, payload = stash[block_id]
                result = payload
                stash[block_id] = (new_leaf, payload)
            if mutate is not None:
                new_data = mutate(result)
            if new_data is not None:
                self._check_payload(new_data)
                stash[block_id] = (new_leaf, new_data)

        # Greedy eviction, vectorized: one pass over the stash instead of
        # the per-level rescan (see greedy_eviction_placements).
        placements, stash = greedy_eviction_placements(
            stash, leaf, self._levels, self._bucket_size
        )
        pack = self._pack
        write_plaintexts = [
            pack(placed) if placed else empty
            for placed in placements[len(cached) :][::-1]
        ]

        # Write the suffix back leaf→level k: one keystream pass, one scatter.
        revisions, aads = self._ledger.stage_at(region, write_indices)
        blocks = enclave.seal_many(write_plaintexts, aads)
        try:
            enclave.untrusted.write_at(region, write_indices, blocks)
        except TransientStorageError as first:
            # Some prefix landed under revisions nothing has committed, so
            # a caller that retried would find buckets it cannot open.
            # Finish here: the same blocks to the same slots.
            try:
                enclave.untrusted.write_at(region, write_indices, blocks)
            except TransientStorageError:
                raise ORAMError(
                    f"path write-back to {region} failed twice; the tree is "
                    "torn and must be rebuilt"
                ) from first
        self._ledger.commit_at(region, write_indices, revisions)
        for index, placed in zip(cached, placements):
            treetop[index] = placed
        self._stash = stash
        if block_id is not None:
            self._position[block_id] = new_leaf

        if len(stash) > self._stash_limit:
            raise ORAMError(
                f"stash overflow: {len(stash)} blocks exceeds limit "
                f"{self._stash_limit}"
            )
        return result

    def _check_payload(self, data: bytes) -> None:
        if len(data) > self._block_size:
            raise ValueError(
                f"payload of {len(data)} B exceeds block size {self._block_size} B"
            )

    def _pack(self, placed: list[tuple[int, tuple[int, bytes]]]) -> bytes:
        """One bucket of stash items ``(block id, (leaf, payload))``, in
        order, as :func:`_pack_bucket` lays it out."""
        fields: list = []
        for block_id, (leaf, payload) in placed:
            fields += (block_id, leaf, len(payload), payload)
        return self._bucket.pack(*fields, *self._empty_tails[len(placed)])

    def _slots(self, plaintexts: Iterable[bytes]) -> Iterator[tuple[int, int, int, bytes]]:
        """Every slot of the bucket plaintexts, in order, as ``(block id,
        leaf, payload length, payload padded to block_size)``; an empty
        slot has block id ``-1``."""
        fields = chain.from_iterable(self._bucket.iter_unpack(b"".join(plaintexts)))
        return zip(fields, fields, fields, fields)

    def _entries(self, plaintext: bytes) -> list[tuple[int, int, bytes]]:
        """One bucket's ``(block id, leaf, payload)`` entries, as
        :func:`_unpack_bucket` returns them."""
        if plaintext == self._empty_bucket:
            return []
        return [
            (block_id, leaf, payload[:length])
            for block_id, leaf, length, payload in self._slots([plaintext])
            if block_id >= 0
        ]

    def read(self, block_id: int) -> bytes | None:
        """Oblivious read of a logical block."""
        return self._access(block_id, None)

    def write(self, block_id: int, data: bytes) -> None:
        """Oblivious write of a logical block."""
        self._access(block_id, data)

    def update(self, block_id: int, mutate) -> None:
        """Read-modify-write in a single observable ORAM access.

        ``mutate`` receives the current payload (``None`` if unwritten) and
        returns the payload to store.
        """
        self._access(block_id, None, mutate=mutate)

    def dummy_access(self) -> None:
        """An access to a random path, indistinguishable from read/write."""
        self._access(None, None)

    # ------------------------------------------------------------------
    # Initial load: one sealing pass instead of one access per block
    # ------------------------------------------------------------------
    def load_blocks(self, blocks: Iterable[tuple[int, bytes]]) -> None:
        """Rebuild the tree around ``blocks`` in one sealing pass.

        Each block draws a fresh uniform leaf — independent of its id,
        payload and position in ``blocks`` — and goes into the deepest
        bucket on its path that still has a free slot, or into the stash
        when the whole path is full: the Path ORAM invariant, reached
        without an access.  The plan is made from ids and leaves alone and
        ``stash_limit`` is enforced before anything is written.  Every
        bucket below the treetop is then sealed once, in index order
        (:meth:`_seal_buckets`), so the adversary sees
        ``W 2^k-1..num_buckets-1`` — a function of the capacity, not of how
        many blocks were loaded or where they went — and no path is
        revealed, so no leaf needs remapping.  Blocks not listed are
        dropped, as :meth:`ORAM.load_blocks` allows.
        """
        if self._freed:
            raise ORAMError("ORAM has been freed")
        payloads = dict(blocks)
        for block_id, payload in payloads.items():
            self.check_block_id(block_id)
            self._check_payload(payload)
        leaves = {block_id: self._rng.randrange(self._leaves) for block_id in payloads}
        leaf_base = self._num_buckets - self._leaves + 1  # 1-based heap index
        contents: dict[int, list[tuple[int, int, bytes]]] = {}
        stash: dict[int, tuple[int, bytes]] = {}
        for block_id, leaf in leaves.items():
            node = leaf_base + leaf
            while node and len(contents.setdefault(node - 1, [])) >= self._bucket_size:
                node >>= 1  # the parent; 0 once the root is full too
            if node:
                contents[node - 1].append((block_id, leaf, payloads[block_id]))
            else:
                stash[block_id] = (leaf, payloads[block_id])
        if len(stash) > self._stash_limit:
            raise ORAMError(
                f"stash overflow: {len(stash)} blocks exceeds limit "
                f"{self._stash_limit}"
            )
        for block_id, leaf in leaves.items():
            self._position[block_id] = leaf
        self._stash = stash
        self._seal_buckets(contents)

    def load_accesses(self, count: int) -> float:
        """The sealing pass writes every bucket below the treetop once
        whatever ``count`` is; an access moves the path's suffix twice
        (read, then write back)."""
        return (self._num_buckets - len(self._treetop)) / (
            2 * (self._levels - self._treetop_levels)
        )

    # ------------------------------------------------------------------
    # Bulk bucket reads (linear-scan fallback)
    # ------------------------------------------------------------------
    def scan_buckets(
        self, start: int, count: int
    ) -> list[list[tuple[int, int, bytes]]]:
        """Open the buckets of ``[start, start+count)`` that live in
        untrusted memory to their unpacked entries; the treetop's blocks
        are :meth:`resident_blocks`, not read here.

        The B+ tree's flat-style linear scan reads the raw tree in index
        order; this batches that read (trace: ``R start..start+count-1``
        from index ``2^k - 1`` on, exactly the per-bucket loop) and opens
        all buckets in one keystream pass with their current-revision
        associated data.
        """
        enclave = self._enclave
        stop = start + count
        start = max(start, len(self._treetop))
        count = max(0, stop - start)
        sealed = enclave.untrusted.read_range(self._region, start, count)
        for offset, block in enumerate(sealed):
            if block is None:
                raise ORAMError(f"missing bucket {start + offset} in {self._region}")
        plaintexts = enclave.open_many(
            sealed, self._ledger.open_range(self._region, start, count)
        )
        return [self._entries(plaintext) for plaintext in plaintexts]

    @property
    def num_buckets(self) -> int:
        return self._num_buckets

    def free(self) -> None:
        """Release the untrusted region and oblivious-memory reservations."""
        if self._freed:
            return
        self._enclave.untrusted.free_region(self._region)
        self._ledger.forget_region(self._region)
        self._enclave.oblivious.release(self._oblivious_bytes)
        self._freed = True


def paper_path_oram(
    enclave: Enclave, capacity: int, block_size: int, rng: random.Random
) -> PathORAM:
    """Path ORAM exactly as the paper builds it — no treetop — in the
    B+ tree's ``oram_factory`` shape: what the figure benchmarks and the
    baselines that model other systems price."""
    return PathORAM(enclave, capacity, block_size, rng=rng, treetop_levels=0)
