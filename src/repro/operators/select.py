"""Oblivious SELECT algorithms (Section 4.1).

Five algorithms materialise the rows of an input table matching a predicate
into a fresh flat output table, each optimised for a different regime and
each with an access pattern that is a fixed function of the public sizes
|T| (input capacity) and |R| (output size, supplied by the planner):

============ ==================== ======================= =================
Algorithm    Time                 Oblivious memory        Best when
============ ==================== ======================= =================
Naive        O(N log N)           O(R)  (ORAM)            baseline only
Small        O(N²/S)              S bytes                 R fits in enclave
Large        O(N)                 0                       R ≈ N
Continuous   O(N)                 0                       R is one segment
Hash         O(N·C)               0                       fallback
============ ==================== ======================= =================

All functions take the planner-computed ``output_size`` up front so output
structures can be allocated before the data is scanned — the reason the
paper calls the planner's statistics pass "for free" (Section 5).  The
engine goes further on every table but the paper's: that pass is also
Small's first pass, so an output of at most one buffer never reaches this
module, and Small resumes from the pass's full buffer (``first``) instead
of re-reading the table for it.  Small's passes are one generator of
per-pass buffers (:func:`small_passes`): :func:`small_select` flushes each
to its output table, and the engine hands a plain selection's buffers to
the result as they fill, with no output table at all.
"""

from __future__ import annotations

import hashlib
import random
from contextlib import closing
from typing import Iterator

from ..enclave.enclave import Enclave
from ..enclave.errors import StorageError
from ..oblivious.compact import (
    compaction_levels,
    filter_copy,
    materialize_prefix,
    oblivious_compact,
)
from ..oram.path_oram import PathORAM
from ..storage.flat import FlatStorage
from ..storage.indexed import IndexedStorage
from ..storage.rows import filter_reader, frame_dummy, framed_size, is_dummy
from ..storage.schema import Row, Schema
from .predicate import Predicate

#: Chain length per hash function in the Hash algorithm (Azar et al. guidance).
HASH_CHAIN_SLOTS = 5
#: Number of hash functions (double hashing).
HASH_FUNCTIONS = 2
#: Retry budget for the (very unlikely) hash-placement failure.
_HASH_MAX_ATTEMPTS = 8


def naive_select(
    table: FlatStorage,
    predicate: Predicate,
    output_size: int,
    rng: random.Random | None = None,
) -> FlatStorage:
    """Baseline: one ORAM operation per scanned row (Figure 3 "Naive").

    Matching rows are written to sequential ORAM slots; non-matching rows
    trigger a dummy read so every row of T coincides with exactly one ORAM
    operation.  Afterwards the ORAM contents are copied out to flat storage.
    Uses ~4·|R| bytes of oblivious memory for the output ORAM's position map.
    """
    enclave = table.enclave
    decode, matches = filter_reader(table.schema, predicate)
    slots = max(1, output_size)
    oram = PathORAM(
        enclave,
        capacity=slots,
        block_size=framed_size(table.schema),
        rng=rng or random.Random(),
        treetop_levels=0,  # Figure 3's baseline is the paper's ORAM
    )
    written = 0
    for index in range(table.capacity):
        framed = table.read_framed(index)
        row = decode([framed])[0]
        if row is not None and matches(row):
            if written >= slots:
                raise StorageError("planner under-estimated the output size")
            oram.write(written, framed)
            written += 1
        else:
            oram.dummy_access()
    output = FlatStorage(enclave, table.schema, output_size)
    dummy = frame_dummy(table.schema)
    for index in range(output_size):
        framed = oram.read(index)
        if framed is None or is_dummy(framed):
            output.write_framed(index, dummy)
        else:
            output.write_framed(index, framed)
            output._used += 1
    oram.free()
    return output


def compact_select(
    table: FlatStorage, predicate: Predicate, output_size: int
) -> FlatStorage:
    """Filter-compact selection: one filter front, one compaction, one copy.

    The compaction front that replaces multi-pass buffered scanning when
    oblivious memory is scarce: copy the input through a filter into a
    scratch (``R T[i], W scratch[i]`` per row), slide the keepers to the
    scratch's front with the order-preserving oblivious compaction network
    (O(N log N), no row buffer), then materialise the first |R| slots.
    Every stage's trace is a pure function of (|T|, |R|) — the same leakage
    as the Small algorithm it substitutes for — and the output preserves
    input order, like Small's.
    """
    enclave = table.enclave
    scratch = FlatStorage(enclave, table.schema, table.capacity)
    flags = filter_copy(table, scratch, predicate)
    # The front just decided every slot: hand the flags over so the
    # compaction skips its marking scan (a public call-site property).
    oblivious_compact(scratch, flags=flags)
    output = materialize_prefix(scratch, max(1, output_size))
    if output_size == 0:
        output._used = 0
    scratch.free()
    return output


def small_compacts(capacity: int, output_size: int, buffer_rows: int) -> bool:
    """Whether :func:`small_select` hands over to :func:`compact_select`:
    its ``ceil(|R| / buffer)`` passes would cost more than the compaction
    front (roughly ``3 + 3·log2 |T|`` passes).  Public sizes only."""
    passes = max(1, -(-output_size // buffer_rows))
    return output_size > 0 and passes > 3 + 3 * compaction_levels(capacity)


def small_passes(
    table: FlatStorage,
    predicate: Predicate,
    output_size: int,
    buffer_rows: int,
    first: tuple[list[bytes], int] | None = None,
) -> Iterator[list[bytes]]:
    """The passes of the Small algorithm (Figure 4A), one buffer each.

    Each pass reads the entire input (one batched range read,
    ``R 0 .. N-1``) and fills an enclave buffer of ``buffer_rows`` frames
    with the matches after the previous pass's last one; the generator
    yields the buffer after the pass, until ``output_size`` rows have been
    yielded.  The number of passes is ceil(|R| / buffer), computable from
    public sizes alone.  Rows are tested through the predicate's column
    reader and buffered as their frames.  The buffer's reservation is held
    from the first pass to the last (close the generator to release it
    early).

    ``first = (frames, cursor)`` is a first pass already made — the
    planner's statistics pass kept the first ``buffer_rows`` matching frames
    and the index of the last one: it is yielded as the first pass's buffer
    and the passes resume after ``cursor``, one ``R 0 .. N-1`` fewer.
    """
    enclave = table.enclave
    decode, matches = filter_reader(table.schema, predicate)
    yielded = 0
    cursor = -1  # index of the last row already yielded
    with enclave.oblivious_buffer(buffer_rows * framed_size(table.schema)):
        while yielded < output_size:
            if first is not None:
                # The statistics pass made this pass already.
                buffer, last_buffered = first
                first = None
            else:
                buffer, last_buffered = [], cursor
                # Uniform pass: one batched range read (R 0 .. R N-1, the
                # same per-block order), decode inside the enclave.
                for start, frames in table.scan_framed_chunks():
                    for index, framed, row in zip(
                        range(start, start + len(frames)), frames, decode(frames)
                    ):
                        if (
                            index > cursor
                            and len(buffer) < buffer_rows
                            and row is not None
                            and matches(row)
                        ):
                            buffer.append(framed)
                            last_buffered = index
            if not buffer:
                return  # fewer matches than promised
            yield buffer
            yielded += len(buffer)
            cursor = last_buffered


def small_select(
    table: FlatStorage,
    predicate: Predicate,
    output_size: int,
    buffer_rows: int,
    first: tuple[list[bytes], int] | None = None,
) -> FlatStorage:
    """Multiple fast passes, buffering matches in oblivious memory
    (Figure 4A), into an output table of ``output_size`` slots.

    Runs :func:`small_passes` and flushes each pass's buffer to the output
    after the pass: one range write, ``W copied .. copied+k-1``, the per-row
    loop's trace.  Slots no pass fills stay dummy.  With ``first`` the trace
    is the one without it minus that pass's ``R 0 .. N-1``.  The engine
    hands a plain selection's buffers to the result instead and allocates
    no output (``SelectNode.streamed``).

    When the buffer is so small that the pass count exceeds the cost of the
    compaction front (:func:`small_compacts`), the operator switches to
    :func:`compact_select` — same output, same order, same public inputs
    deciding, strictly fewer block accesses.
    """
    if buffer_rows < 1:
        raise ValueError("buffer_rows must be positive")
    if small_compacts(table.capacity, output_size, buffer_rows):
        return compact_select(table, predicate, output_size)
    output = FlatStorage(table.enclave, table.schema, output_size)
    with closing(small_passes(table, predicate, output_size, buffer_rows, first)) as passes:
        for buffer in passes:
            output.write_range_framed(output.used_rows, buffer)
            output._used += len(buffer)
    return output


def large_select(table: FlatStorage, predicate: Predicate) -> FlatStorage:
    """Copy the table, then clear unselected rows in one pass (Figure 4B).

    For outputs of nearly |T| rows.  The copy is data-independent; the
    clearing pass reads and rewrites every block (dummy write on keepers).
    Output capacity equals |T|; uses no oblivious memory.
    """
    enclave = table.enclave
    decode, matches = filter_reader(table.schema, predicate)
    output = FlatStorage(enclave, table.schema, table.capacity)
    # Copy framed bytes directly (same interleaved R-source/W-target pattern,
    # no decode/re-encode); the clearing pass re-seals keepers' frames as-is.
    for index in range(table.capacity):
        output.write_framed(index, table.read_framed(index))
    kept = 0

    def clear(index: int, framed: bytes) -> bytes:
        nonlocal kept
        row = decode([framed])[0]
        if row is not None and matches(row):
            kept += 1
            return framed  # dummy write (fresh ciphertext)
        return frame_dummy(table.schema)

    output.exchange_framed(0, output.capacity, clear)
    output._used = kept
    return output


def continuous_select(
    table: FlatStorage, predicate: Predicate, output_size: int
) -> FlatStorage:
    """One pass for results forming a contiguous segment (Figure 4C).

    Row i of T maps to slot ``i mod |R|`` of R; matches are written there and
    non-matches trigger a dummy rewrite of the same slot, so the pattern is
    fixed: read T[i], read R[i mod |R|], write R[i mod |R|].  Correct exactly
    when the matches are contiguous — each output slot then sees one real
    write.  Choosing this algorithm leaks continuity (Section 4.1); it can
    be disabled at the planner.
    """
    enclave = table.enclave
    decode, matches = filter_reader(table.schema, predicate)
    slots = max(1, output_size)
    output = FlatStorage(enclave, table.schema, slots)
    written = 0
    for index in range(table.capacity):
        framed = table.read_framed(index)
        row = decode([framed])[0]
        slot = index % slots
        current = output.read_framed(slot)
        if row is not None and matches(row):
            output.write_framed(slot, framed)
            written += 1
        else:
            output.write_framed(slot, current)  # dummy write, fresh ciphertext
    output._used = min(written, slots)
    if output_size == 0:
        output._used = 0
    return output


def _hash_slot(salt: int, function: int, index: int, buckets: int) -> int:
    """Hash of the *block index* (never the data), per Section 4.1."""
    digest = hashlib.blake2b(
        f"{salt}:{function}:{index}".encode(), digest_size=8
    ).digest()
    return int.from_bytes(digest, "little") % buckets


def hash_select(
    table: FlatStorage,
    predicate: Predicate,
    output_size: int,
    compact_output: bool = False,
) -> FlatStorage:
    """General-purpose selection by hashing block indices (Figure 5).

    Output structure: |R| bucket positions × 5 chained slots; each input row
    touches all 10 slots of its two candidate buckets (read + write each),
    placing itself in the first free slot if selected.  Access pattern is a
    pure function of |T| and |R| because the hash is over the block index.
    On (improbable) placement failure the whole pass retries with a new
    salt — observable, but independent of data values.

    ``compact_output=True`` runs the compaction back end: the sparse
    |R|·5-slot chain table is compacted in place (order-preserving
    oblivious compaction, trace a function of |R| alone) and its first |R|
    slots are materialised into a tight output table, so downstream
    operators scan |R| blocks instead of 5·|R|.  The planner path enables
    it; direct callers keep the paper's raw chain-table shape by default.
    """
    enclave = table.enclave
    decode, matches = filter_reader(table.schema, predicate)
    buckets = max(1, output_size)

    for attempt in range(_HASH_MAX_ATTEMPTS):
        output = FlatStorage(
            enclave, table.schema, buckets * HASH_CHAIN_SLOTS
        )
        placed = 0
        failed = False
        for index in range(table.capacity):
            framed = table.read_framed(index)
            row = decode([framed])[0]
            selected = row is not None and matches(row)
            done = False
            for function in range(HASH_FUNCTIONS):
                bucket = _hash_slot(attempt, function, index, buckets)
                for chain in range(HASH_CHAIN_SLOTS):
                    slot = bucket * HASH_CHAIN_SLOTS + chain
                    current = output.read_framed(slot)
                    if selected and not done and is_dummy(current):
                        output.write_framed(slot, framed)
                        done = True
                        placed += 1
                    else:
                        output.write_framed(slot, current)  # dummy rewrite
            if selected and not done:
                failed = True
        if not failed:
            output._used = placed
            if compact_output:
                oblivious_compact(output)
                tight = materialize_prefix(output, buckets)
                if output_size == 0:
                    tight._used = 0
                output.free()
                return tight
            return output
        output.free()
    raise StorageError(
        f"hash select failed to place rows after {_HASH_MAX_ATTEMPTS} attempts"
    )


def materialize_index_range(
    index: IndexedStorage,
    low: object | None,
    high: object | None,
) -> FlatStorage:
    """Copy the index segment [low, high] into a flat scratch table.

    This is the first half of "selection over indexes" (Section 4.1) as the
    paper runs it: the linear scan that a flat-table algorithm would make
    over T instead starts from an index lookup and covers only the returned
    segment T'.  Leaks the segment size |T'| (an intermediate table size);
    each row retrieval costs O(log² N) through the ORAM.  The planner
    takes this path only to spill (:func:`spill_index_segment`): a segment
    that fits free oblivious memory, on any index but the paper's, is
    answered where the lookup left it.
    """
    rows = index.range_lookup(low, high)  # type: ignore[arg-type]
    return spill_index_segment(index.enclave, index.schema, rows)


def spill_index_segment(enclave: Enclave, schema: Schema, rows: list[Row]) -> FlatStorage:
    """The looked-up rows of an index segment in a flat scratch table of
    ``max(1, |T'|)`` rows: one allocation pass, then ``W 0..max(1, |T'|)-1``
    — a miss writes its one dummy slot as a one-row hit writes its row."""
    scratch = FlatStorage(enclave, schema, max(1, len(rows)))
    try:
        scratch.write_all(rows)
    except Exception:
        scratch.free()  # the caller never got a handle to free it through
        raise
    return scratch
