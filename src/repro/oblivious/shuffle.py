"""Bucket oblivious random shuffle (Melbourne-style two-pass).

ObliDB destroys ordering — between join phases, before handing an
intermediate table to a weaker-trusted consumer, inside Ring ORAM style
reshuffles — by obliviously *sorting* by a random key, paying the full
O(n log² n) network.  When order is irrelevant (the point of a shuffle) the
classic two-pass bucket shuffle does the same job in O(n) passes with an
O(√n)-row enclave buffer:

1. **Distribute.**  The enclave draws a secret uniform permutation ``perm``
   (:mod:`repro.oblivious.permute`) and reads the input in chunks of ``m``
   rows.  Chunk ``k`` writes *exactly* ``p`` scratch slots per bucket — the
   fixed cells ``bucket*(K*p) + k*p .. + p`` — carrying the chunk's rows
   destined for that bucket (those with ``perm[i]`` in the bucket's output
   segment) padded with filler entries.  Both the read range and the write
   cells are pure functions of ``n``, so the distribution trace is
   data-independent; only the *contents* (sealed, hence invisible) depend on
   the permutation.

2. **Clean up / permute.**  Each bucket is read back in one range, filler
   entries are discarded, the survivors are ordered by their (secret)
   target position, and the bucket's output segment is written with one
   range write.  Because the output segments partition ``range(n)``, every
   bucket holds exactly its segment's rows — again a fixed trace.

If a chunk overflows a cell (more than ``p`` of its rows target one
bucket) the permutation is *rejected during planning* — before any
observable access — and a fresh one is drawn, so retries are invisible to
the adversary (unlike the Hash select's observable salt retries).  Cell
capacity is ~3.5× the expected load, making rejection astronomically rare.

The scratch is a raw untrusted region (entries are ``target || frame``
bytes, not schema rows) managed exactly like an ORAM region: revision-bound
through a :class:`~repro.enclave.integrity.RevisionLedger`, sealed with one
``seal_many`` keystream pass per batch, and moved through the
``read_range``/``write_at`` untrusted-memory primitives — no per-row
round-trips anywhere.  ``tests/storage/test_datapath_equivalence.py`` pins
the trace against a per-row reference implementation, and
``benchmarks/test_perf_shuffle.py`` tracks the speedup over the sort-based
path this replaces.
"""

from __future__ import annotations

import math
import random
import struct
from dataclasses import dataclass

from ..enclave.errors import StorageError
from ..enclave.integrity import RevisionLedger
from ..storage.flat import FlatStorage
from ..storage.rows import framed_size
from .permute import generate_permutation

#: Scratch-cell header: the row's secret target position (-1 for filler).
_ENTRY_HEADER = struct.Struct("<q")

#: Retry budget for (enclave-side, unobservable) permutation rejection.
_MAX_PLAN_ATTEMPTS = 16

#: Client-side bytes charged per row for the in-flight permutation (same
#: rate as the ORAM position map).
_POSITION_BYTES = 4


@dataclass(frozen=True)
class ShuffleGeometry:
    """The public shape of one shuffle: every field is a function of n.

    ``buckets`` output segments of ``segment_rows`` rows each; the input is
    read in ``chunks`` chunks of ``chunk_rows``; each (chunk, bucket) cell
    holds ``cell_slots`` scratch slots.
    """

    n: int
    buckets: int
    segment_rows: int
    chunk_rows: int
    chunks: int
    cell_slots: int

    @property
    def bucket_slots(self) -> int:
        """Scratch slots per bucket (its contiguous scratch range)."""
        return self.chunks * self.cell_slots

    @property
    def scratch_capacity(self) -> int:
        return self.buckets * self.bucket_slots

    def segment(self, bucket: int) -> tuple[int, int]:
        """The output positions ``[start, stop)`` bucket ``bucket`` owns."""
        start = bucket * self.segment_rows
        return start, min(start + self.segment_rows, self.n)

    def cell_start(self, bucket: int, chunk: int) -> int:
        """First scratch slot of the (chunk, bucket) distribution cell."""
        return bucket * self.bucket_slots + chunk * self.cell_slots

    def distribute_indices(self, chunk: int) -> list[int]:
        """The fixed scratch slots chunk ``chunk`` writes, in write order."""
        return [
            self.cell_start(bucket, chunk) + slot
            for bucket in range(self.buckets)
            for slot in range(self.cell_slots)
        ]


def shuffle_geometry(n: int) -> ShuffleGeometry:
    """Bucket/chunk shape for an ``n``-row shuffle.

    Buckets number ~√n/4 so both the distribution chunk and the clean-up
    bucket stay at O(√n) enclave-resident rows; cell capacity is ~3.5× the
    expected per-cell load (plus additive slack for tiny tables), putting
    the planning-time rejection probability far below 2^-60.
    """
    if n < 1:
        raise ValueError("shuffle needs at least one row")
    buckets = max(1, round(math.sqrt(n) / 4))
    segment = (n + buckets - 1) // buckets
    chunk_rows = segment
    chunks = (n + chunk_rows - 1) // chunk_rows
    expected = (chunk_rows + buckets - 1) // buckets
    cell_slots = min(chunk_rows, 3 * expected + 8)
    return ShuffleGeometry(
        n=n,
        buckets=buckets,
        segment_rows=segment,
        chunk_rows=chunk_rows,
        chunks=chunks,
        cell_slots=cell_slots,
    )


def plan_shuffle(
    geometry: ShuffleGeometry, rng: random.Random
) -> tuple[list[int], list[list[list[int]]]]:
    """Draw a permutation whose distribution fits every cell.

    Returns ``(perm, cells)`` where ``cells[chunk][bucket]`` lists the
    input indices that chunk routes to that bucket.  Planning is pure
    client-side work: a rejected permutation costs no observable access.
    """
    for _ in range(_MAX_PLAN_ATTEMPTS):
        perm = generate_permutation(geometry.n, rng)
        cells: list[list[list[int]]] = [
            [[] for _ in range(geometry.buckets)] for _ in range(geometry.chunks)
        ]
        ok = True
        for index, target in enumerate(perm):
            chunk = index // geometry.chunk_rows
            bucket = target // geometry.segment_rows
            cell = cells[chunk][bucket]
            if len(cell) >= geometry.cell_slots:
                ok = False
                break
            cell.append(index)
        if ok:
            return perm, cells
    raise StorageError(
        f"shuffle planning failed {_MAX_PLAN_ATTEMPTS} times; "
        "geometry slack too tight for this size"
    )


def oblivious_shuffle(
    table: FlatStorage,
    rng: random.Random | None = None,
    name: str | None = None,
) -> FlatStorage:
    """Return a new table holding ``table``'s blocks in secret random order.

    Dummy rows travel like real ones (the permutation covers every slot),
    so the output is a uniformly permuted image of the input region and the
    used-row count carries over.  Fast-insert is disabled on the output
    (free slots are scattered); compact first if append capacity matters.

    Trace contract (pure function of ``table.capacity``): per input chunk,
    ``R`` its contiguous range then ``W`` the chunk's fixed distribution
    cells in ascending order; then the output table's init pass; then per
    bucket, ``R`` its contiguous scratch range then ``W`` its contiguous
    output segment.  Enforced against a per-row reference loop by the
    trace-equivalence tests.
    """
    enclave = table.enclave
    if table.capacity == 0:
        return FlatStorage(enclave, table.schema, 0, name=name)
    geometry = shuffle_geometry(table.capacity)
    rng = rng if rng is not None else random.Random()
    perm, cells = plan_shuffle(geometry, rng)

    frame_bytes = framed_size(table.schema)
    entry_bytes = _ENTRY_HEADER.size + frame_bytes
    filler = _ENTRY_HEADER.pack(-1) + b"\x00" * frame_bytes
    resident_rows = max(2 * geometry.chunk_rows, geometry.bucket_slots)
    buffer_bytes = resident_rows * entry_bytes + _POSITION_BYTES * geometry.n

    scratch_region = enclave.fresh_region_name("shuffle")
    enclave.untrusted.allocate_region(scratch_region, geometry.scratch_capacity)
    ledger = RevisionLedger()
    try:
        with enclave.oblivious_buffer(buffer_bytes):
            # Pass 1: distribute.  One batched range read and one batched
            # cell scatter per chunk; every cell is padded to its fixed size.
            for chunk in range(geometry.chunks):
                start = chunk * geometry.chunk_rows
                count = min(geometry.chunk_rows, geometry.n - start)
                frames = table.read_range_framed(start, count)
                entries: list[bytes] = []
                for bucket in range(geometry.buckets):
                    cell = cells[chunk][bucket]
                    entries.extend(
                        _ENTRY_HEADER.pack(perm[index]) + frames[index - start]
                        for index in cell
                    )
                    entries.extend([filler] * (geometry.cell_slots - len(cell)))
                indices = geometry.distribute_indices(chunk)
                revisions, aads = ledger.stage_at(scratch_region, indices)
                sealed = enclave.seal_many(entries, aads)
                enclave.untrusted.write_at(scratch_region, indices, sealed)
                ledger.commit_at(scratch_region, indices, revisions)

            # Pass 2: clean up.  One batched bucket read and one batched
            # segment write per bucket; fillers die inside the enclave.
            output = FlatStorage(enclave, table.schema, geometry.n, name=name)
            _cleanup_sequential(enclave, geometry, scratch_region, ledger, output)
    finally:
        enclave.untrusted.free_region(scratch_region)
        ledger.forget_region(scratch_region)

    output._used = table.used_rows
    # Free slots are now scattered: block the sequential fast-insert path.
    output._next_fast_insert = output.capacity
    return output


def _cleanup_sequential(
    enclave, geometry: ShuffleGeometry, scratch_region: str, ledger, output
) -> None:
    """Clean-up: per bucket, read its scratch range, write its segment."""
    header = _ENTRY_HEADER
    for bucket in range(geometry.buckets):
        base = bucket * geometry.bucket_slots
        sealed = enclave.untrusted.read_range(
            scratch_region, base, geometry.bucket_slots
        )
        for offset, block in enumerate(sealed):
            if block is None:
                raise StorageError(f"missing block {scratch_region}[{base + offset}]")
        aads = ledger.open_range(scratch_region, base, geometry.bucket_slots)
        entries_out = []
        for plaintext in enclave.open_many(sealed, aads):
            (target,) = header.unpack_from(plaintext, 0)
            if target >= 0:
                entries_out.append((target, plaintext[header.size :]))
        entries_out.sort(key=lambda entry: entry[0])
        seg_start, seg_stop = geometry.segment(bucket)
        if len(entries_out) != seg_stop - seg_start:
            raise StorageError(
                f"shuffle bucket {bucket} holds {len(entries_out)} rows "
                f"for a segment of {seg_stop - seg_start}"
            )
        output.write_range_framed(seg_start, [frame for _, frame in entries_out])

