"""Flat storage method (Section 3.1).

Rows live in a series of adjacent sealed blocks — one record per block, as
in the paper's implementation — with no built-in access-pattern protection,
so every operation is a full scan in which *each* block is read and then
written back (a real write or a re-encrypted dummy write).  Because every
ciphertext is randomised, the adversary cannot tell which write was real;
the trace of every insert/update/delete is exactly ``capacity`` read-write
pairs regardless of data or parameters.

The one exception is the *fast insert* path for rarely-deleted tables: the
enclave remembers the next free slot and writes it directly, leaking only
the number of insertions — which the adversary already learns from watching
table sizes over time (Section 3.1).

Data-path batching
------------------
All uniform passes run through range primitives (``read_range_framed``,
``write_range_framed``, ``exchange_framed``, ``exchange_pairs_framed``) that
amortize per-block Python overhead — one trace append, one ledger fetch and
commit, one batched seal/open — across a contiguous run of blocks; passes
that pair this table with another (join probes, union copies, merge scans,
``copy_to``) run through :meth:`FlatStorage.interleave_to`, the
cross-region interleaved exchange.  The invariant, enforced by the
trace-equivalence tests, is that every batched pass records *exactly* the
same adversary-visible access sequence (same region, same indices, same
order, same read/write interleaving) as the equivalent per-block loop:
batching amortizes simulator overhead, it never merges or reorders
observable accesses.  Every public batched primitive states its trace
contract in its docstring; ``docs/data-path.md`` has the architecture.

Full-table passes are internally chunked at :data:`_CHUNK_BLOCKS` so the
enclave side holds a bounded number of decrypted frames at a time, keeping
the paper's O(1)/O(S) enclave-memory claims honest for arbitrarily large
tables; concatenated chunk traces are identical to one unchunked pass.
(:meth:`exchange_pairs_framed` is the exception — a compare-exchange level
at distance ``half`` inherently needs both ends of every pair in hand.)
"""

from __future__ import annotations

from typing import Callable, Iterable, Iterator, Sequence

from ..enclave.enclave import Enclave
from ..enclave.errors import CapacityError, IntegrityError, RollbackError, StorageError
from ..enclave.integrity import RevisionLedger
from .rows import (
    RowFilter,
    filter_reader,
    frame_dummy,
    frame_row_validated,
    is_dummy,
    unframe_row,
)
from .schema import Row, Schema

#: Blocks handled per batched call (~0.5 MB of frames at the paper's 512 B
#: block size): large enough to amortize per-call Python overhead, small
#: enough to bound enclave-side residency during full-table passes.
_CHUNK_BLOCKS = 1024


class FlatStorage:
    """A fixed-capacity array of sealed one-row blocks in untrusted memory."""

    def __init__(
        self,
        enclave: Enclave,
        schema: Schema,
        capacity: int,
        name: str | None = None,
        ledger: RevisionLedger | None = None,
    ) -> None:
        if capacity < 0:
            raise StorageError("capacity must be non-negative")
        self._enclave = enclave
        self.schema = schema
        self._region = name or enclave.fresh_region_name("flat")
        self._ledger = ledger if ledger is not None else RevisionLedger()
        enclave.untrusted.allocate_region(self._region, capacity)
        self._freed = False
        # Enclave-side metadata: number of in-use rows and the fast-insert
        # cursor.  Both are derivable from public information (observed
        # insert/delete operations), so keeping them is not extra leakage.
        self._used = 0
        self._next_fast_insert = 0
        # Initialise every block to a sealed dummy so the very first scan
        # already touches uniform, well-formed ciphertexts.  One batched
        # write pass: W 0 .. W capacity-1, as the per-block loop would emit.
        if capacity:
            try:
                self.write_range_framed(0, [frame_dummy(schema)] * capacity)
            except Exception:
                self.free()  # no caller holds the half-built table
                raise

    # ------------------------------------------------------------------
    # Properties
    # ------------------------------------------------------------------
    @property
    def capacity(self) -> int:
        """Public size of the table's data structure (leaked by design)."""
        return self._enclave.untrusted.region(self._region).capacity

    @property
    def region_name(self) -> str:
        return self._region

    @property
    def used_rows(self) -> int:
        """Enclave-side count of in-use rows."""
        return self._used

    @property
    def fast_insert_cursor(self) -> int:
        """Next slot the constant-time append path will write."""
        return self._next_fast_insert

    @property
    def enclave(self) -> Enclave:
        return self._enclave

    # ------------------------------------------------------------------
    # Verified decryption with rollback classification
    # ------------------------------------------------------------------
    def _classify_open_failure(
        self, sealed, index: int, error: IntegrityError
    ) -> "IntegrityError":
        """Distinguish a rollback from arbitrary tampering, enclave-side.

        The AAD binds (region, index, revision), so a validly MACed *old*
        copy of a slot fails ``open`` exactly like corrupted bytes.  On the
        failure path — and only there — re-verify the ciphertext against
        every prior revision of this slot; a match means the host served
        stale state (Section 3's rollback attack) and the caller gets the
        more specific :class:`RollbackError`.  The classification touches no
        untrusted memory: the ciphertext is already in hand, and MAC checks
        are pure enclave work, so the adversary observes nothing extra
        before detection.
        """
        current = self._ledger.current(self._region, index)
        for revision in range(current):
            aad = self._ledger.associated_data(self._region, index, revision)
            try:
                self._enclave.open(sealed, aad)
            except IntegrityError:
                continue
            return RollbackError(
                f"stale block served at {self._region}[{index}]: ciphertext "
                f"verifies as revision {revision}, ledger at {current}"
            )
        return error

    def _open_verified(
        self, sealed: list, aads: list[bytes], indices: Sequence[int]
    ) -> list[bytes]:
        """Batch-open blocks of this region; classify failures per slot.

        The fast path is one :meth:`~repro.enclave.enclave.Enclave.
        open_many` pass.  If it fails, the offender is located with
        per-block opens (still enclave-side only) so the raised error names
        the slot and distinguishes :class:`RollbackError` from generic
        :class:`IntegrityError`.
        """
        try:
            return self._enclave.open_many(sealed, aads)
        except IntegrityError:
            for block, aad, index in zip(sealed, aads, indices):
                try:
                    self._enclave.open(block, aad)
                except IntegrityError as cause:
                    raise self._classify_open_failure(
                        block, index, cause
                    ) from cause
            raise  # pragma: no cover - open_many failed but no block did

    # ------------------------------------------------------------------
    # Block-level primitives (each is one observable untrusted access)
    # ------------------------------------------------------------------
    def write_framed(self, index: int, framed: bytes) -> None:
        """Seal ``framed`` bytes into one block (one observable write)."""
        revision = self._ledger.next_revision(self._region, index)
        aad = self._ledger.associated_data(self._region, index, revision)
        sealed = self._enclave.seal(framed, aad)
        self._enclave.untrusted.write(self._region, index, sealed)
        self._ledger.commit(self._region, index, revision)

    def read_framed(self, index: int) -> bytes:
        """Open one block to its framed bytes (one observable read)."""
        sealed = self._enclave.untrusted.read(self._region, index)
        if sealed is None:
            raise StorageError(f"missing block {self._region}[{index}]")
        revision = self._ledger.current(self._region, index)
        aad = self._ledger.associated_data(self._region, index, revision)
        try:
            return self._enclave.open(sealed, aad)
        except IntegrityError as cause:
            raise self._classify_open_failure(sealed, index, cause) from cause

    def read_row(self, index: int) -> Row | None:
        """Read one block; ``None`` when it holds a dummy row."""
        return unframe_row(self.schema, self.read_framed(index))

    def write_row(self, index: int, row: Row | None) -> None:
        """Write one block: a real row, or a dummy when ``row is None``."""
        if row is None:
            framed = frame_dummy(self.schema)
        else:
            framed = frame_row_validated(self.schema, row)
        self.write_framed(index, framed)

    def rewrite_row(self, index: int) -> Row | None:
        """Dummy write: re-encrypt the block's current contents.

        Observable as one read followed by one write, identical to a real
        overwrite; returns the decoded row so scans can piggyback on it.
        """
        framed = self.read_framed(index)
        self.write_framed(index, framed)
        return unframe_row(self.schema, framed)

    # ------------------------------------------------------------------
    # Range primitives: contiguous runs of blocks, one batched call each.
    # Each records the identical per-block access sequence in the trace.
    # ------------------------------------------------------------------
    def read_range_framed(self, start: int, count: int) -> list[bytes]:
        """Open blocks ``[start, start+count)`` of this table's region.

        Trace contract: ``R start .. R start+count-1`` on this region, in
        ascending order, no interleaved writes — identical to a
        :meth:`read_framed` loop.
        """
        sealed = self._enclave.untrusted.read_range(self._region, start, count)
        for offset, block in enumerate(sealed):
            if block is None:
                raise StorageError(f"missing block {self._region}[{start + offset}]")
        aads = self._ledger.open_range(self._region, start, count)
        return self._open_verified(sealed, aads, range(start, start + count))

    def read_range_sealed(
        self, start: int, count: int
    ) -> tuple[list, list[bytes]]:
        """Read blocks ``[start, start+count)`` still sealed, with their AADs.

        Same trace contract as :meth:`read_range_framed` — the read pass is
        identical; the caller opens the blocks.  Nothing in the package
        calls it; ``benchmarks/e2e/spans.py`` instruments it by name.
        """
        sealed = self._enclave.untrusted.read_range(self._region, start, count)
        for offset, block in enumerate(sealed):
            if block is None:
                raise StorageError(f"missing block {self._region}[{start + offset}]")
        aads = self._ledger.open_range(self._region, start, count)
        return sealed, aads

    def write_range_framed(self, start: int, frames: list[bytes]) -> None:
        """Seal ``frames`` into ``[start, start+len(frames))``.

        Trace contract: ``W start .. W start+len(frames)-1`` on this
        region, in ascending order, no interleaved reads — identical to a
        :meth:`write_framed` loop.  Internally chunked; each chunk fails
        atomically.
        """
        for offset in range(0, len(frames), _CHUNK_BLOCKS):
            chunk = frames[offset : offset + _CHUNK_BLOCKS]
            chunk_start = start + offset
            revisions, aads = self._ledger.stage_range(
                self._region, chunk_start, len(chunk)
            )
            sealed = self._enclave.seal_many(chunk, aads)
            self._enclave.untrusted.write_range(self._region, chunk_start, sealed)
            self._ledger.commit_range(self._region, chunk_start, revisions)

    def exchange_framed(
        self, start: int, count: int, transform: Callable[[int, bytes], bytes]
    ) -> None:
        """Read-modify-write pass: ``transform(index, framed) -> framed``.

        Trace: ``R i, W i`` per slot, in index order — identical to calling
        :meth:`read_framed` then :meth:`write_framed` per block.  Processed
        in :data:`_CHUNK_BLOCKS` chunks (each chunk fails atomically, like
        the per-block loop's prefix behaviour).
        """
        self._exchange_chunks(
            start,
            count,
            lambda first, frames: [
                transform(index, framed) for index, framed in enumerate(frames, first)
            ],
        )

    def _exchange_chunks(
        self,
        start: int,
        count: int,
        rewrite: Callable[[int, list[bytes]], list[bytes]],
    ) -> None:
        """:meth:`exchange_framed` with ``rewrite(first index, frames) ->
        frames`` called once per chunk, so a pass can decode a chunk at a
        time.  Same trace."""
        end = start + count
        for chunk_start in range(start, end, _CHUNK_BLOCKS):
            self._exchange_chunk(
                chunk_start, min(_CHUNK_BLOCKS, end - chunk_start), rewrite
            )

    def _exchange_chunk(
        self,
        start: int,
        count: int,
        rewrite: Callable[[int, list[bytes]], list[bytes]],
    ) -> None:
        if not count:
            return
        region = self._region
        ledger = self._ledger
        enclave = self._enclave

        def compute(sealed: list) -> list:
            for offset, block in enumerate(sealed):
                if block is None:
                    raise StorageError(f"missing block {region}[{start + offset}]")
            aads, next_aads, next_revisions = ledger.advance_range(
                region, start, count
            )
            frames = self._open_verified(sealed, aads, range(start, start + count))
            resealed = self._enclave.seal_many(rewrite(start, frames), next_aads)
            ledger.commit_range(region, start, next_revisions)
            return resealed

        enclave.untrusted.exchange_range(region, start, count, compute)

    def exchange_pairs_framed(
        self,
        start: int,
        half: int,
        decide: Callable[[int, bytes, bytes], tuple[bytes, bytes]],
    ) -> None:
        """Compare-exchange pass at distance ``half`` over ``[start, start+2*half)``.

        ``decide(offset, low_framed, high_framed)`` returns the (possibly
        swapped) frames for slots ``start+offset`` and ``start+offset+half``.
        Trace per pair: ``R i, R i+half, W i, W i+half`` — identical to the
        per-block compare-exchange loop of a bitonic merge level.
        """
        region = self._region
        ledger = self._ledger
        enclave = self._enclave
        count = 2 * half

        def compute(lows: list, highs: list) -> tuple[list, list]:
            blocks = lows + highs
            for offset, block in enumerate(blocks):
                if block is None:
                    raise StorageError(f"missing block {region}[{start + offset}]")
            aads, next_aads, next_revisions = ledger.advance_range(
                region, start, count
            )
            frames = self._open_verified(blocks, aads, range(start, start + count))
            new_lows: list[bytes] = []
            new_highs: list[bytes] = []
            for offset in range(half):
                low, high = decide(offset, frames[offset], frames[half + offset])
                new_lows.append(low)
                new_highs.append(high)
            resealed = self._enclave.seal_many(new_lows + new_highs, next_aads)
            ledger.commit_range(region, start, next_revisions)
            return resealed[:half], resealed[half:]

        enclave.untrusted.exchange_pairs(region, start, half, compute)

    # ------------------------------------------------------------------
    # Gather/scatter primitives: arbitrary slot sets, one batched call each
    # ------------------------------------------------------------------
    def read_at_framed(self, indices: Sequence[int]) -> list[bytes]:
        """Open the blocks named by ``indices``, in the given order.

        The framed-bytes gather for non-contiguous slot sets (the oblivious
        shuffle's clean-up pass, sampled audits).  Trace contract: one read
        of this region per index, in exactly the given order — bit-identical
        to a :meth:`read_framed` loop.  Internally chunked at
        :data:`_CHUNK_BLOCKS`.
        """
        frames: list[bytes] = []
        for offset in range(0, len(indices), _CHUNK_BLOCKS):
            chunk = list(indices[offset : offset + _CHUNK_BLOCKS])
            sealed = self._enclave.untrusted.read_at(self._region, chunk)
            for index, block in zip(chunk, sealed):
                if block is None:
                    raise StorageError(f"missing block {self._region}[{index}]")
            aads = self._ledger.open_at(self._region, chunk)
            frames.extend(self._open_verified(sealed, aads, chunk))
        return frames

    def write_at_framed(self, indices: Sequence[int], frames: Sequence[bytes]) -> None:
        """Seal ``frames`` into the slots named by ``indices``, in order.

        The framed-bytes scatter paired with :meth:`read_at_framed` (the
        oblivious shuffle's distribution pass writes each input chunk's
        fixed per-bucket cells with one call).  Trace contract: one write of
        this region per index, in exactly the given order — bit-identical to
        a :meth:`write_framed` loop.  Indices within one call must be unique
        (the ledger stages one revision per slot).  Internally chunked; each
        chunk fails atomically.
        """
        if len(frames) != len(indices):
            raise StorageError(
                f"scatter write of {len(frames)} frames to {len(indices)} slots"
            )
        for offset in range(0, len(indices), _CHUNK_BLOCKS):
            chunk = list(indices[offset : offset + _CHUNK_BLOCKS])
            chunk_frames = list(frames[offset : offset + _CHUNK_BLOCKS])
            revisions, aads = self._ledger.stage_at(self._region, chunk)
            sealed = self._enclave.seal_many(chunk_frames, aads)
            self._enclave.untrusted.write_at(self._region, chunk, sealed)
            self._ledger.commit_at(self._region, chunk, revisions)

    def exchange_schedule_framed(
        self,
        schedule: Sequence[tuple[str, int]],
        transform: Callable[[Sequence[tuple[str, int]], list[bytes]], list[bytes]],
    ) -> None:
        """Execute a client-planned single-region schedule of R/W steps.

        ``schedule`` is a sequence of ``('R'|'W', index)`` steps;
        ``transform(steps, frames)`` receives one chunk's steps and its read
        frames (both in schedule order) and returns one frame per write
        step, which are sealed and scattered.  Chunk boundaries fall at
        arbitrary step positions, so a transform whose decisions group
        several steps must carry its partial group across calls.  This is
        the primitive behind stencil passes whose reads and writes
        interleave at client-planned offsets — the oblivious compaction
        network's levels read slots ``i`` and ``i+D`` and write slot ``i``
        per step group.

        Trace contract: observable as ``len(schedule)`` individual accesses
        on this region — the exact ops, indices, and interleaving of the
        schedule, in schedule order — bit-identical to the per-slot
        read/write loop.  A step may not read a slot that an earlier step of
        the same call wrote (the per-chunk gather would hand back a stale
        block; :meth:`~repro.enclave.memory.UntrustedMemory.
        exchange_interleaved` enforces this within a chunk and this method
        re-checks it across chunk boundaries).  Chunks of
        :data:`_CHUNK_BLOCKS` steps fail atomically.
        """
        region = self._region
        ledger = self._ledger
        enclave = self._enclave
        written: set[int] = set()
        for offset in range(0, len(schedule), _CHUNK_BLOCKS):
            chunk = list(schedule[offset : offset + _CHUNK_BLOCKS])
            read_indices = [index for op, index in chunk if op == "R"]
            write_indices = [index for op, index in chunk if op == "W"]
            for index in read_indices:
                if index in written:
                    raise StorageError(
                        f"schedule reads {region}[{index}] after a previous "
                        "chunk wrote it; gather-then-scatter would return "
                        "the stale block"
                    )
            full_schedule = [(op, region, index) for op, index in chunk]

            staged: list[int] = []

            def compute(
                sealed: list,
                chunk: list = chunk,
                read_indices: list = read_indices,
                write_indices: list = write_indices,
            ) -> list:
                for index, block in zip(read_indices, sealed):
                    if block is None:
                        raise StorageError(f"missing block {region}[{index}]")
                frames = self._open_verified(
                    sealed, ledger.open_at(region, read_indices), read_indices
                )
                new_frames = transform(chunk, frames)
                if len(new_frames) != len(write_indices):
                    raise StorageError(
                        f"schedule transform produced {len(new_frames)} "
                        f"frames for {len(write_indices)} write steps"
                    )
                revisions, aads = ledger.stage_at(region, write_indices)
                staged[:] = revisions
                return self._enclave.seal_many(new_frames, aads)

            enclave.untrusted.exchange_interleaved(full_schedule, compute)
            # Commit only after the blocks are stored (atomic chunk).
            ledger.commit_at(region, write_indices, staged)
            written.update(write_indices)

    def interleave_to(
        self,
        target: "FlatStorage",
        pairs: Sequence[tuple[int, int]],
        transform: Callable[[int, list[bytes]], list[bytes]],
    ) -> None:
        """Cross-region interleaved copy: (R self, W target) per pair.

        Executes ``pairs`` of ``(source_index, target_index)`` as chunked
        :meth:`~repro.enclave.memory.UntrustedMemory.exchange_interleaved`
        round-trips: gather the source blocks, open them in one batch,
        ``transform(offset, frames) -> frames`` (``offset`` is the chunk's
        position within ``pairs``; one output frame per input frame, which
        may carry state across chunks — merge scans do), seal in one batch,
        scatter to the target.

        Trace contract: observable as, for each pair in order,
        ``R self[src], W target[dst]`` — region, indices, order, and R/W
        interleaving bit-identical to the per-row loop
        ``target.write_framed(dst, f(self.read_framed(src)))``.  This is the
        primitive the two-region operator passes (hash-join probe, sort-merge
        union and merge, aggregate filter-copy, :meth:`copy_to`) ride on.

        Both tables must share one enclave (one adversary, one trace);
        ledgers may differ — reads are opened against this table's ledger,
        writes staged and committed against the target's.  Chunks of
        :data:`_CHUNK_BLOCKS` pairs fail atomically, like the other batched
        passes.
        """
        enclave = self._enclave
        if target._enclave is not enclave:
            raise StorageError("interleave_to requires tables in one enclave")
        src_region, dst_region = self._region, target._region
        src_ledger, dst_ledger = self._ledger, target._ledger
        for offset in range(0, len(pairs), _CHUNK_BLOCKS):
            chunk = pairs[offset : offset + _CHUNK_BLOCKS]
            read_steps = [(src_region, src) for src, _ in chunk]
            write_steps = [(dst_region, dst) for _, dst in chunk]
            schedule = [
                step
                for (src, dst) in chunk
                for step in (("R", src_region, src), ("W", dst_region, dst))
            ]

            staged: list[int] = []

            def compute(sealed: list, offset: int = offset) -> list:
                for (src, _), block in zip(chunk, sealed):
                    if block is None:
                        raise StorageError(f"missing block {src_region}[{src}]")
                aads = src_ledger.open_steps(read_steps)
                frames = self._open_verified(
                    sealed, aads, [src for src, _ in chunk]
                )
                new_frames = transform(offset, frames)
                if len(new_frames) != len(chunk):
                    raise StorageError(
                        f"interleaved transform produced {len(new_frames)} "
                        f"frames for {len(chunk)} pairs"
                    )
                revisions, next_aads = dst_ledger.stage_steps(write_steps)
                resealed = target._enclave.seal_many(new_frames, next_aads)
                staged[:] = revisions
                return resealed

            enclave.untrusted.exchange_interleaved(schedule, compute)
            # Commit only after the blocks are stored: a failure anywhere in
            # the round-trip leaves ledger and slots consistent (atomic chunk).
            dst_ledger.commit_steps(write_steps, staged)

    # ------------------------------------------------------------------
    # Oblivious table operations (Section 3.1): one uniform pass each
    # ------------------------------------------------------------------
    def insert(self, row: Row) -> None:
        """Oblivious insert: full pass, real write to the first free block."""
        framed_new = frame_row_validated(self.schema, row)
        if self._used >= self.capacity:
            raise CapacityError(f"table {self._region} is full")
        inserted = False

        def transform(index: int, framed: bytes) -> bytes:
            nonlocal inserted
            if not inserted and is_dummy(framed):
                inserted = True
                return framed_new
            return framed

        self.exchange_framed(0, self.capacity, transform)
        self._used += 1
        self._next_fast_insert = max(self._next_fast_insert, self._used)

    def insert_many(self, rows: Sequence[Row]) -> None:
        """Oblivious bulk insert: ONE full pass placing every row.

        The per-row :meth:`insert` pays a whole read-modify-write pass per
        row; maintaining a table's flat copy under a stream of inserts (the
        BOTH storage method's dual-copy cost) therefore scaled as
        ``len(rows)`` full passes.  This batch path makes the same uniform
        pass exactly once — trace: ``R i, W i`` per slot in order, identical
        to a single insert's pass — and fills the first ``len(rows)`` free
        slots inside it.  The adversary learns only that a write pass of
        public size happened; how many rows it carried is not observable
        (every slot gets a fresh ciphertext either way).
        """
        framed_new = [frame_row_validated(self.schema, row) for row in rows]
        if self._used + len(framed_new) > self.capacity:
            raise CapacityError(f"table {self._region} is full")
        if not framed_new:
            return
        pending = iter(framed_new)
        remaining = len(framed_new)

        def transform(index: int, framed: bytes) -> bytes:
            nonlocal remaining
            if remaining and is_dummy(framed):
                remaining -= 1
                return next(pending)
            return framed

        self.exchange_framed(0, self.capacity, transform)
        if remaining:
            raise StorageError(
                f"table {self._region} had fewer free slots than expected"
            )
        self._used += len(framed_new)
        self._next_fast_insert = max(self._next_fast_insert, self._used)

    def fast_insert(self, row: Row) -> None:
        """Constant-time insert into the next sequential block.

        Leaks only the number of insertions (already public from table-size
        history).  Intended for tables with few deletions, per Section 3.1;
        after deletions it will not reuse freed slots.
        """
        framed = frame_row_validated(self.schema, row)
        if self._next_fast_insert >= self.capacity:
            raise CapacityError(f"table {self._region} is full for fast inserts")
        self.write_framed(self._next_fast_insert, framed)
        self._next_fast_insert += 1
        self._used += 1

    def fast_insert_many(self, rows: Sequence[Row]) -> None:
        """Batched constant-time append: one range write at the cursor.

        The bulk analogue of :meth:`fast_insert` — seals every row with one
        keystream pass and lands them with one contiguous range write.
        Trace: ``W cursor .. W cursor+len(rows)-1``, bit-identical to the
        per-row :meth:`fast_insert` loop.  Same leakage argument: only the
        number of insertions, already public from table-size history.
        """
        frames = [frame_row_validated(self.schema, row) for row in rows]
        if self._next_fast_insert + len(frames) > self.capacity:
            raise CapacityError(f"table {self._region} is full for fast inserts")
        if not frames:
            return
        self.write_range_framed(self._next_fast_insert, frames)
        self._next_fast_insert += len(frames)
        self._used += len(frames)

    def write_all(self, rows: Sequence[Row]) -> None:
        """Fill a fresh table in one pass: ``rows`` (at most ``capacity``)
        from slot 0, a dummy in every slot after them.

        Trace: ``W 0 .. W capacity-1`` whatever ``len(rows)`` is, so how
        many of the slots are real does not show.
        """
        frames = [frame_row_validated(self.schema, row) for row in rows]
        frames += [frame_dummy(self.schema)] * (self.capacity - len(frames))
        self.write_range_framed(0, frames)
        self._used = self._next_fast_insert = len(rows)

    def update(
        self,
        predicate: RowFilter | Callable[[Row], bool],
        assign: Callable[[Row], Row],
    ) -> int:
        """Oblivious update: one pass; matching rows rewritten via ``assign``.

        Every block gets a read and a write (trace ``R i, W i`` per slot);
        returns the number updated.  Each chunk is tested through the
        predicate's column reader (see :func:`~repro.storage.rows.
        filter_reader`); only a matching row is decoded whole, for
        ``assign``.
        """
        updated = 0
        schema = self.schema
        decode, matches = filter_reader(schema, predicate)

        def rewrite(first: int, frames: list[bytes]) -> list[bytes]:
            nonlocal updated
            out = []
            for framed, row in zip(frames, decode(frames)):
                if row is not None and matches(row):
                    updated += 1
                    full = unframe_row(schema, framed)
                    framed = frame_row_validated(schema, assign(full))
                out.append(framed)
            return out

        self._exchange_chunks(0, self.capacity, rewrite)
        return updated

    def delete(self, predicate: RowFilter | Callable[[Row], bool]) -> int:
        """Oblivious delete: one pass; matches overwritten with dummies
        (trace ``R i, W i`` per slot; tested as in :meth:`update`)."""
        deleted = 0
        dummy = frame_dummy(self.schema)
        decode, matches = filter_reader(self.schema, predicate)

        def rewrite(first: int, frames: list[bytes]) -> list[bytes]:
            nonlocal deleted
            out = []
            for framed, row in zip(frames, decode(frames)):
                if row is not None and matches(row):
                    deleted += 1
                    framed = dummy
                out.append(framed)
            return out

        self._exchange_chunks(0, self.capacity, rewrite)
        self._used -= deleted
        return deleted

    # ------------------------------------------------------------------
    # Scans
    # ------------------------------------------------------------------
    def scan(self) -> Iterator[tuple[int, Row | None]]:
        """Read every block in order, yielding (index, row-or-None).

        Lazy, one block per step — partial consumption records exactly the
        blocks actually read.  Full passes should prefer :meth:`scan_framed`
        (or :meth:`rows`), which batch the whole read pass.
        """
        for index in range(self.capacity):
            yield index, self.read_row(index)

    def scan_framed_chunks(self) -> Iterator[tuple[int, list[bytes]]]:
        """Batched full scan, yielding (start index, chunk of frames).

        Reads the region in :data:`_CHUNK_BLOCKS` range calls (trace:
        R 0 .. R capacity-1, exactly the per-block scan order), holding one
        chunk of decrypted frames at a time.  Chunk granularity lets
        consumers (scans, hash builds, aggregations) decode each chunk with
        one :meth:`~repro.storage.schema.Schema.reader` codec pass.
        """
        capacity = self.capacity
        for chunk_start in range(0, capacity, _CHUNK_BLOCKS):
            count = min(_CHUNK_BLOCKS, capacity - chunk_start)
            yield chunk_start, self.read_range_framed(chunk_start, count)

    def scan_framed(self) -> Iterator[tuple[int, bytes]]:
        """Batched full scan, yielding (index, framed bytes) one at a time.

        Trace contract: same as :meth:`scan_framed_chunks` —
        ``R 0 .. R capacity-1`` on this region, the per-block scan order.
        """
        for chunk_start, frames in self.scan_framed_chunks():
            yield from enumerate(frames, chunk_start)

    def rows(self, columns: Iterable[str] | None = None) -> list[Row]:
        """All in-use rows, via one full oblivious scan.

        Each chunk of frames is decoded with one precompiled codec pass —
        through ``schema.reader(columns)`` when ``columns`` is given, so the
        rows hold those columns only, in schema order.
        """
        decode = (
            self.schema.decode_framed_rows
            if columns is None
            else self.schema.reader(columns)[1]
        )
        result = []
        for _, frames in self.scan_framed_chunks():
            result.extend(row for row in decode(frames) if row is not None)
        return result

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def copy_to(self, name: str | None = None, capacity: int | None = None) -> "FlatStorage":
        """Copy into a new (possibly larger) flat table via interleaved exchange.

        This is how ObliDB grows a table past its initial maximum capacity.
        Trace contract: after the target's own init pass (``W`` over all
        target slots), one :meth:`interleave_to` pass — ``R source[i],
        W target[i]`` for every source index in ascending order, exactly the
        per-block read-source/write-target loop.  Framed bytes are copied
        through without a decode/validate/re-encode round trip.
        """
        new_capacity = capacity if capacity is not None else self.capacity
        if new_capacity < self.capacity:
            raise StorageError("copy_to target must not be smaller")
        target = FlatStorage(
            self._enclave,
            self.schema,
            new_capacity,
            name=name,
            ledger=self._ledger,
        )
        self.interleave_to(
            target,
            [(index, index) for index in range(self.capacity)],
            lambda offset, frames: frames,
        )
        target._used = self._used
        target._next_fast_insert = self._next_fast_insert
        return target

    def free(self) -> None:
        """Release the untrusted region (e.g. an intermediate result)."""
        if self._freed:
            return
        self._enclave.untrusted.free_region(self._region)
        self._ledger.forget_region(self._region)
        self._freed = True
