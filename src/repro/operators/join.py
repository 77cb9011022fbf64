"""Oblivious JOIN algorithms (Section 4.3).

Three algorithms over flat tables, as in Figure 3:

* :func:`hash_join` — oblivious variant of the classic hash join: build an
  enclave hash table from as many rows of T1 as fit in oblivious memory,
  stream T2 against it, and write one output block per (chunk, T2-row) pair
  — a real joined row on a match, a dummy otherwise.  O((N/S)·M); the output
  data structure's size is a pure function of the input sizes.
  :func:`held_hash_join` runs the same build and probe reads but keeps the
  emitted rows in the enclave instead: at most |T2| of them, so when that
  many frames fit beside the hash table the output needs no table at all.

* :func:`opaque_join` — re-implementation of Opaque's sort-merge join for
  foreign-key joins: union both tables into one scratch table, sort it
  obliviously by (join key, table tag) using oblivious-memory-accelerated
  chunked sorting, then merge in one linear scan.

* :func:`zero_om_join` — the paper's 0-OM variant: same structure but the
  sort is a pure bitonic network needing no oblivious memory, with the
  optional in-enclave cutover once subproblems fit in (non-oblivious)
  enclave memory.

T1 must be the primary-key side: every T2 row matches at most one T1 row,
so the output has at most one row per probed or scanned row and a uniform
one-write-per-row pattern suffices.  A T1 that repeats a join key is
rejected with a :class:`QueryError` once the operator's passes are done.

Every algorithm materialises a joined row at exactly one place (the hash
join's probe, the sort-merge joins' merge scan).  ``predicate`` and
``columns`` fuse the statement's WHERE and column list into that emit: a
pair that matches on the key but fails the predicate is written as the
same dummy frame a key miss is, and a surviving pair is framed with only
``columns`` — same passes, same slot count, narrower blocks, and a trace
that no longer depends on how many pairs the WHERE keeps.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Sequence

from ..enclave.errors import QueryError
from ..oblivious.compact import materialize_prefix, oblivious_compact
from ..storage.flat import FlatStorage
from ..storage.rows import frame_dummy, frame_row_validated, framed_bytes, framed_size
from ..storage.schema import Column, FrameDecoder, Row, Schema, Value, int_column
from .predicate import Predicate
from .sort import bitonic_sort, external_oblivious_sort, padded_scratch


def joined_schema(left: Schema, right: Schema, prefixes: tuple[str, str] = ("l", "r")) -> Schema:
    """Schema of a join result: all left columns then all right columns.

    Column names are prefixed only when they would collide, matching the
    behaviour of mainstream engines.
    """
    left_names = set(left.column_names())
    columns: list[Column] = list(left.columns)
    for column in right.columns:
        if column.name in left_names:
            columns.append(
                Column(f"{prefixes[1]}_{column.name}", column.type, column.size)
            )
        else:
            columns.append(column)
    return Schema(columns)


def _neutral_value(column: Column) -> Value:
    """Filler for the absent side of a tagged union row."""
    if column.type.value == "str":
        return ""
    if column.type.value == "float":
        return 0.0
    return 0


def _emitter(
    out_schema: Schema,
    predicate: Predicate | None,
    columns: Sequence[str] | None,
    row_schema: Schema | None = None,
) -> tuple[Schema, Callable[[Row], bytes | None]]:
    """The emitted schema and the joined-row → output-frame function.

    The one place a joined row is filtered, projected and framed: ``emit``
    returns ``None`` for a row ``predicate`` rejects — the caller writes the
    dummy frame it writes for a key miss — and otherwise the row projected
    to ``columns`` and framed.  ``None`` / ``None`` emits every pair in the
    full joined schema ``out_schema``.  ``row_schema`` is the schema of the
    joined rows ``emit`` receives when they are narrower than ``out_schema``
    (see :func:`_narrow_join`); the predicate and ``columns`` bind to it by
    name.
    """
    row_schema = row_schema or out_schema
    schema = out_schema if columns is None else out_schema.project(columns)
    keep = None if predicate is None else predicate.compile(row_schema)
    indexes = (
        None
        if columns is None
        else [row_schema.column_index(name) for name in columns]
    )

    def emit(row: Row) -> bytes | None:
        if keep is not None and not keep(row):
            return None
        if indexes is not None:
            row = [row[index] for index in indexes]
        return frame_row_validated(schema, row)

    return schema, emit


def _narrow_join(
    left: Schema,
    right: Schema,
    joined: Schema,
    column1: str,
    column2: str,
    predicate: Predicate | None,
    columns: Sequence[str] | None,
) -> tuple[Schema, tuple[Schema, FrameDecoder], tuple[Schema, FrameDecoder]]:
    """What a hash join decodes: each side's reader and the schema of the
    joined rows they make.

    Each side reads its join key and the columns the emit uses (the
    predicate's and ``columns``, all of them for ``None``).  A left narrow
    row followed by a right one is the returned joined schema: ``joined``'s
    (:func:`joined_schema`'s) columns at those positions, so a name that
    collides is prefixed exactly as in the full join.
    """
    used = set(joined.column_names() if columns is None else columns)
    if predicate is not None:
        used |= predicate.columns()
    width = len(left)
    positions = {joined.column_index(name) for name in used}
    positions |= {left.column_index(column1), width + right.column_index(column2)}
    left_reader = left.reader(
        left.columns[i].name for i in positions if i < width
    )
    right_reader = right.reader(
        right.columns[i - width].name for i in positions if i >= width
    )
    row_schema = joined.project([joined.columns[i].name for i in sorted(positions)])
    return row_schema, left_reader, right_reader


class JoinReservation(NamedTuple):
    """What a join operator takes from oblivious memory under a budget:
    the rows of one in-enclave chunk (T1 rows per hash table, union rows
    per sort chunk) and the bytes it reserves.  The planner reads ``nbytes``
    to decide whether an algorithm can run at all; the operator reserves
    it."""

    chunk_rows: int
    nbytes: int


def hash_join_reservation(
    left: Schema,
    t1: int,
    t2: int,
    oblivious_memory_bytes: int,
    held: Schema | None = None,
) -> JoinReservation:
    """The hash join's reservation: a chunk of as many T1 rows as the
    budget holds (at least one, at most |T1|), plus, when the output is
    held (``held`` is the emitted schema), |T2| frames of it: a foreign-key
    join emits at most one row per T2 row."""
    # A row plus hash-table entry slack, sized by the stored width, not by
    # the narrow rows the build keeps: the chunk count shapes the trace,
    # which must not depend on the statement's column list.
    row_bytes = framed_size(left) + 16
    chunk_rows = max(1, oblivious_memory_bytes // row_bytes)
    nbytes = min(chunk_rows, t1) * row_bytes
    if held is not None:
        nbytes += framed_bytes(t2, held)
    return JoinReservation(chunk_rows, nbytes)


def opaque_join_reservation(
    left: Schema, right: Schema, t1: int, t2: int, oblivious_memory_bytes: int
) -> JoinReservation:
    """The Opaque join's reservation: its sort merges pairs of chunks of
    the padded union, so a pair of chunks of union rows — nothing when one
    chunk holds the whole union, which the sort orders in one pass."""
    capacity = padded_scratch(t1 + t2)
    row_bytes = framed_size(_union_schema(left, right))
    chunk_rows = _largest_dividing_chunk(
        capacity, max(1, oblivious_memory_bytes // (2 * row_bytes))
    )
    nbytes = 0 if chunk_rows >= capacity else 2 * chunk_rows * row_bytes
    return JoinReservation(chunk_rows, nbytes)


#: The 0-OM join's bitonic network holds no rows in oblivious memory.
ZERO_OM_RESERVATION = JoinReservation(1, 0)


def _finish_join(
    output: FlatStorage,
    table2: FlatStorage,
    compact_output: bool,
    repeated_key_column: str | None,
) -> FlatStorage:
    """Common tail: optional tightening, then the primary-key contract.

    ``compact_output`` tightens the sparse output (one slot per probe or
    per scanned union row, mostly dummies) to the public foreign-key bound
    |T2|: compacted in place with the order-preserving oblivious compaction
    network, first |T2| slots materialised into a tight table, so
    downstream operators scan |T2| blocks instead of the probe- or
    scratch-sized structure.  Trace: a pure function of the capacities.

    A T1 that repeated a join key would have lost rows, so it is rejected —
    only here, after every pass has run, so the failed join's trace is the
    successful one's — and the output region is freed.
    """
    if compact_output:
        bound = max(1, min(table2.capacity, output.capacity))
        oblivious_compact(output)
        tight = materialize_prefix(output, bound)
        output.free()
        output = tight
    if repeated_key_column is not None:
        output.free()
        raise _repeated_key(repeated_key_column)
    return output


def _repeated_key(column: str) -> QueryError:
    return QueryError(
        f"join column {column!r} repeats a key on the left side: the left "
        "table of a join must be the primary-key side"
    )


def _hash_join(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
    oblivious_memory_bytes: int,
    predicate: Predicate | None,
    columns: Sequence[str] | None,
    hold: bool,
) -> tuple[Schema, FlatStorage | list[bytes], bool]:
    """Build and probe, chunk by chunk: the emitted schema, the output —
    a table of one slot per (chunk, T2 row) probe, or with ``hold`` the
    emitted frames — and whether T1 repeated a key."""
    enclave = table1.enclave
    joined = joined_schema(table1.schema, table2.schema)
    row_schema, (schema1, decode1), (schema2, decode2) = _narrow_join(
        table1.schema, table2.schema, joined, column1, column2, predicate, columns
    )
    key1 = schema1.column_index(column1)
    key2 = schema2.column_index(column2)
    out_schema, emit = _emitter(joined, predicate, columns, row_schema)
    reservation = hash_join_reservation(
        table1.schema,
        table1.capacity,
        table2.capacity,
        oblivious_memory_bytes,
        held=out_schema if hold else None,
    )
    chunk_rows = reservation.chunk_rows
    num_chunks = (table1.capacity + chunk_rows - 1) // chunk_rows
    with enclave.oblivious_buffer(reservation.nbytes):
        table = (
            None
            if hold
            else FlatStorage(enclave, out_schema, num_chunks * table2.capacity)
        )
        held: list[bytes] = []
        dummy = frame_dummy(out_schema)
        matched = 0
        # Keys of every chunk so far (not only the resident one), so a
        # repeat is caught wherever the chunk boundary falls.
        # Enclave-private bookkeeping for the primary-key contract; it
        # never influences an access.
        seen_keys: set[Value] = set()
        repeated = False
        for chunk in range(num_chunks):
            start = chunk * chunk_rows
            stop = min(start + chunk_rows, table1.capacity)
            # Chunk build: one batched range read of T1 (same contiguous
            # R start .. R stop-1 pattern as the per-block loop) decoded in
            # a single precompiled codec pass.
            rows1 = [
                row
                for row in decode1(table1.read_range_framed(start, stop - start))
                if row is not None
            ]
            hash_table = {row[key1]: row for row in rows1}
            if len(hash_table) < len(rows1) or not seen_keys.isdisjoint(hash_table):
                repeated = True
            seen_keys.update(hash_table)

            def probe(offset: int, frames: list[bytes]) -> list[bytes]:
                """One output frame per probe whatever matched — the real
                emitted row or a dummy — so the pattern stays a pure
                function of the input sizes."""
                nonlocal matched
                out = []
                for row2 in decode2(frames):
                    row1 = hash_table.get(row2[key2]) if row2 is not None else None
                    frame = None if row1 is None else emit(row1 + row2)
                    if frame is None:
                        out.append(dummy)
                    else:
                        out.append(frame)
                        matched += 1
                return out

            if table is None:
                # Held: the probe is a plain read pass R T2 0..|T2|-1 and
                # the emitted frames stay here.
                for offset, frames in table2.scan_framed_chunks():
                    held.extend(
                        frame for frame in probe(offset, frames) if frame is not dummy
                    )
            else:
                # Chunk probe: stream T2 against the enclave hash table
                # through the interleaved exchange — R T2[i], W
                # output[base+i] per probe, the per-row loop's exact
                # two-region trace, with the crypto and bookkeeping batched.
                base = chunk * table2.capacity
                table2.interleave_to(
                    table,
                    [(index, base + index) for index in range(table2.capacity)],
                    probe,
                )
    if table is None:
        return out_schema, held, repeated
    table._used = matched
    return out_schema, table, repeated


def hash_join(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
    oblivious_memory_bytes: int,
    compact_output: bool = False,
    predicate: Predicate | None = None,
    columns: Sequence[str] | None = None,
) -> FlatStorage:
    """Oblivious hash join (Figure 3 "Hash Join").

    ``oblivious_memory_bytes`` bounds the enclave hash table; it determines
    how many passes over T2 are needed and is the knob Figure 8 sweeps.
    ``compact_output=True`` tightens the chunks-by-|T2| probe output to the
    foreign-key bound |T2| through the oblivious compaction network (the
    planner path enables it; direct callers keep the raw shape).
    ``predicate`` / ``columns`` are fused into the probe's emit (see the
    module docstring).  Build and probe decode only the columns the emit
    and the keys use (:func:`_narrow_join`).
    """
    _, output, repeated = _hash_join(
        table1,
        table2,
        column1,
        column2,
        oblivious_memory_bytes,
        predicate,
        columns,
        hold=False,
    )
    assert isinstance(output, FlatStorage)
    return _finish_join(
        output, table2, compact_output, column1 if repeated else None
    )


def held_hash_join(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
    oblivious_memory_bytes: int,
    predicate: Predicate | None = None,
    columns: Sequence[str] | None = None,
) -> tuple[Schema, list[bytes]]:
    """The hash join with its output held in the enclave: the emitted
    schema and the frames of the emitted rows, in probe order.

    Same build as :func:`hash_join`; each chunk's probe is a plain read
    pass over T2, and no output region is allocated.  The reservation
    covers the hash table and |T2| emitted frames for the whole join,
    so the planner holds this only when both fit
    (:func:`hash_join_reservation` with ``held``).  A T1 that repeats a key
    raises :class:`QueryError` after every pass, as :func:`hash_join` does.
    """
    schema, frames, repeated = _hash_join(
        table1,
        table2,
        column1,
        column2,
        oblivious_memory_bytes,
        predicate,
        columns,
        hold=True,
    )
    if repeated:
        raise _repeated_key(column1)
    assert isinstance(frames, list)
    return schema, frames


def _union_schema(left: Schema, right: Schema) -> Schema:
    """The sort-merge joins' scratch row: a table tag, then the joined
    schema."""
    return Schema([int_column("_tag")] + list(joined_schema(left, right).columns))


def _union_scratch(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
) -> tuple[FlatStorage, int, int]:
    """Copy both tables into one tagged scratch table, padded to a power of
    two.

    Scratch schema: [tag INT] + joined schema; tag 0 = primary (T1) rows,
    tag 1 = foreign (T2) rows.  The join key of either side is exposed
    through its own column; sorting uses (key, tag) so each primary row
    immediately precedes its foreign matches.
    """
    if table1.schema.column(column1).type is not table2.schema.column(column2).type:
        raise QueryError(
            f"join columns {column1!r} and {column2!r} have different types"
        )
    out_schema = joined_schema(table1.schema, table2.schema)
    scratch_schema = _union_schema(table1.schema, table2.schema)
    capacity = padded_scratch(table1.capacity + table2.capacity)
    scratch = FlatStorage(table1.enclave, scratch_schema, capacity)

    left_width = len(table1.schema)
    right_neutral = tuple(_neutral_value(c) for c in out_schema.columns[left_width:])
    left_neutral = tuple(_neutral_value(c) for c in out_schema.columns[:left_width])

    # Two interleaved-exchange passes — R T1[i], W scratch[i] then
    # R T2[i], W scratch[T1.capacity + i] — exactly the per-row copy loops'
    # trace, with batched decode of each source chunk and one-shot crypto.
    dummy = frame_dummy(scratch_schema)

    def copy_side(table: FlatStorage, tag_row, base: int) -> None:
        schema = table.schema

        def tagged(offset: int, frames: list[bytes]) -> list[bytes]:
            return [
                dummy
                if row is None
                else frame_row_validated(scratch_schema, tag_row(row))
                for row in schema.decode_framed_rows(frames)
            ]

        table.interleave_to(
            scratch,
            [(index, base + index) for index in range(table.capacity)],
            tagged,
        )

    copy_side(table1, lambda row: (0,) + row + right_neutral, 0)
    copy_side(table2, lambda row: (1,) + left_neutral + row, table1.capacity)
    key1_index = 1 + table1.schema.column_index(column1)
    key2_index = 1 + left_width + table2.schema.column_index(column2)
    return scratch, key1_index, key2_index


def _merge_scan(
    scratch: FlatStorage,
    out_schema: Schema,
    emit: Callable[[Row], bytes | None],
    key1_index: int,
    key2_index: int,
    left_width: int,
) -> tuple[FlatStorage, bool]:
    """Linear merge over the sorted union: one output write per scanned row.

    Keeps the last-seen primary row in the enclave; a foreign row whose key
    matches it emits the joined row (``out_schema`` / ``emit`` come from
    :func:`_emitter`), anything else emits a dummy.  Runs as one interleaved-exchange pass —
    R scratch[i], W output[i] per row, the per-row loop's trace — with the
    last-seen primary carried across chunks inside the enclave.  Also
    reports whether two primary rows shared a key (they sort adjacent).
    """
    enclave = scratch.enclave
    output = FlatStorage(enclave, out_schema, scratch.capacity)
    scratch_schema = scratch.schema
    dummy = frame_dummy(out_schema)
    current_primary: Row | None = None
    matched = 0
    repeated = False

    def merge(offset: int, frames: list[bytes]) -> list[bytes]:
        nonlocal current_primary, matched, repeated
        out = []
        for row in scratch_schema.decode_framed_rows(frames):
            frame: bytes | None = None
            if row is not None:
                if row[0] == 0:
                    if (
                        current_primary is not None
                        and row[key1_index] == current_primary[key1_index - 1]
                    ):
                        repeated = True
                    current_primary = row[1 : 1 + left_width]
                elif (
                    current_primary is not None
                    and row[key2_index] == current_primary[key1_index - 1]
                ):
                    frame = emit(current_primary + row[1 + left_width :])
            if frame is None:
                out.append(dummy)
            else:
                out.append(frame)
                matched += 1
        return out

    scratch.interleave_to(
        output, [(index, index) for index in range(scratch.capacity)], merge
    )
    output._used = matched
    return output, repeated


def opaque_join(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
    oblivious_memory_bytes: int,
    compact_output: bool = False,
    predicate: Predicate | None = None,
    columns: Sequence[str] | None = None,
) -> FlatStorage:
    """Opaque's sort-merge foreign-key join (Figure 3 "Opaque Join").

    T1 is the primary side.  The union is sorted with quicksorted chunks of
    oblivious memory merged by a chunk-level bitonic network, then merged in
    one scan.  O((N+M)·log²((N+M)/S)) block accesses.
    ``compact_output=True`` tightens the scratch-sized merge output to the
    foreign-key bound |T2| via the oblivious compaction network;
    ``predicate`` / ``columns`` are fused into the merge scan's emit.
    """
    out_schema, emit = _emitter(
        joined_schema(table1.schema, table2.schema), predicate, columns
    )
    scratch, key1_index, key2_index = _union_scratch(
        table1, table2, column1, column2
    )
    left_width = len(table1.schema)
    key_column1 = scratch.schema.columns[key1_index]

    def sort_key(row: Row) -> tuple:
        key = row[key1_index] if row[0] == 0 else row[key2_index]
        return (key_column1.sort_key(key), row[0])

    chunk_rows = opaque_join_reservation(
        table1.schema,
        table2.schema,
        table1.capacity,
        table2.capacity,
        oblivious_memory_bytes,
    ).chunk_rows
    external_oblivious_sort(scratch, sort_key, chunk_rows)
    output, repeated = _merge_scan(
        scratch, out_schema, emit, key1_index, key2_index, left_width
    )
    scratch.free()
    return _finish_join(
        output, table2, compact_output, column1 if repeated else None
    )


def zero_om_join(
    table1: FlatStorage,
    table2: FlatStorage,
    column1: str,
    column2: str,
    enclave_rows: int = 1,
    compact_output: bool = False,
    predicate: Predicate | None = None,
    columns: Sequence[str] | None = None,
) -> FlatStorage:
    """The 0-OM join: bitonic-sorted union, no oblivious memory required.

    ``enclave_rows`` enables the in-enclave sorting cutover (the
    optimisation that lets the algorithm speed up with plain enclave memory
    without affecting obliviousness).  O((N+M)·log²(N+M)).
    ``compact_output=True`` tightens the output to the foreign-key bound
    |T2| via the oblivious compaction network; ``predicate`` / ``columns``
    are fused into the merge scan's emit.
    """
    out_schema, emit = _emitter(
        joined_schema(table1.schema, table2.schema), predicate, columns
    )
    scratch, key1_index, key2_index = _union_scratch(
        table1, table2, column1, column2
    )
    left_width = len(table1.schema)
    key_column1 = scratch.schema.columns[key1_index]

    def sort_key(row: Row) -> tuple:
        key = row[key1_index] if row[0] == 0 else row[key2_index]
        return (key_column1.sort_key(key), row[0])

    bitonic_sort(scratch, sort_key, enclave_rows=enclave_rows)
    output, repeated = _merge_scan(
        scratch, out_schema, emit, key1_index, key2_index, left_width
    )
    scratch.free()
    return _finish_join(
        output, table2, compact_output, column1 if repeated else None
    )


def _largest_dividing_chunk(capacity: int, at_most: int) -> int:
    """Largest chunk size <= at_most with capacity/chunk a power of two.

    ``capacity`` is itself a power of two (scratch tables are padded), so
    any power-of-two chunk size divides it suitably.
    """
    chunk = 1
    while chunk * 2 <= at_most and chunk * 2 <= capacity:
        chunk *= 2
    return chunk