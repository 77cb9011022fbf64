"""Oblivious aggregation and GROUP BY (Section 4.2).

Plain aggregates are one uniform read pass with the running statistic kept
inside the enclave — nothing leaks beyond |T|.  Grouped aggregation keeps a
hash table of per-group accumulators in oblivious memory (the paper charges
4 bytes per group) and still makes exactly one read pass.  If the group
table would outgrow oblivious memory, we fall back to Opaque's
sort-and-filter approach at O(N log² N).

The fused select+aggregate operator evaluates a predicate inline during the
aggregation pass, avoiding both the cost and the intermediate-size leakage
of materialising a filtered table first (Section 4.2, "Combining
Aggregation and Selection").
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from itertools import groupby
from operator import itemgetter
from typing import Iterable, Sequence

from ..enclave.errors import ObliviousMemoryError, QueryError, StorageError
from ..oblivious.compact import filter_copy
from ..storage.flat import FlatStorage
from ..storage.rows import frame_dummy, frame_row_validated
from ..storage.schema import (
    Column,
    ColumnType,
    FrameDecoder,
    Row,
    Schema,
    Value,
    float_column,
)
from .predicate import Predicate, RowPredicate, TruePredicate
from .sort import bitonic_sort, external_oblivious_sort, padded_scratch


class AggregateFunction(Enum):
    """The five aggregates ObliDB supports."""

    COUNT = "count"
    SUM = "sum"
    MIN = "min"
    MAX = "max"
    AVG = "avg"


@dataclass(frozen=True)
class AggregateSpec:
    """One aggregate expression, e.g. ``SUM(revenue)``.

    COUNT may use ``column=None`` (COUNT(*)).
    """

    function: AggregateFunction
    column: str | None = None

    def __post_init__(self) -> None:
        if self.function is not AggregateFunction.COUNT and self.column is None:
            raise QueryError(f"{self.function.value} requires a column")

    def label(self) -> str:
        target = self.column if self.column is not None else "*"
        return f"{self.function.value}({target})"


class _Accumulator:
    """Streaming state for one aggregate over one (group of) row stream."""

    __slots__ = ("spec", "count", "total", "minimum", "maximum")

    def __init__(self, spec: AggregateSpec) -> None:
        self.spec = spec
        self.count = 0
        self.total: float = 0.0
        self.minimum: Value | None = None
        self.maximum: Value | None = None

    def add(self, value: Value | None) -> None:
        self.count += 1
        if value is None:
            return
        if self.spec.function in (AggregateFunction.SUM, AggregateFunction.AVG):
            self.total += value  # type: ignore[arg-type]
        elif self.spec.function is AggregateFunction.MIN:
            if self.minimum is None or value < self.minimum:  # type: ignore[operator]
                self.minimum = value
        elif self.spec.function is AggregateFunction.MAX:
            if self.maximum is None or value > self.maximum:  # type: ignore[operator]
                self.maximum = value

    def result(self) -> Value:
        function = self.spec.function
        if function is AggregateFunction.COUNT:
            return self.count
        if function is AggregateFunction.SUM:
            return self.total
        if function is AggregateFunction.AVG:
            return self.total / self.count if self.count else 0.0
        if function is AggregateFunction.MIN:
            return self.minimum if self.minimum is not None else 0
        return self.maximum if self.maximum is not None else 0

    #: Bytes of oblivious memory one accumulator occupies.  The paper counts
    #: 4 bytes per group; we charge a slightly more honest 8.
    BYTES = 8


#: Rows an aggregation folds, one batch at a time: the decoded chunks of a
#: scan, or the one list an in-enclave index segment holds.
Batches = Iterable[Sequence[Row | None]]


def _bind(
    schema: Schema,
    specs: list[AggregateSpec],
    predicate: Predicate | None,
    *extra: str,
) -> tuple[Schema, FrameDecoder, RowPredicate, list[int | None]]:
    """The reader of the columns an aggregation pass uses (the predicate's,
    the aggregated ones and ``extra``), with the predicate and the spec
    columns bound to its narrow schema (:func:`_positions`)."""
    predicate = predicate or TruePredicate()
    used = predicate.columns().union(extra)
    used.update(spec.column for spec in specs if spec.column is not None)
    narrow, decode = schema.reader(used)
    return narrow, decode, *_positions(narrow, specs, predicate)


def _positions(
    schema: Schema, specs: list[AggregateSpec], predicate: Predicate | None
) -> tuple[RowPredicate, list[int | None]]:
    """The predicate compiled against ``schema`` and each spec's column
    position in it (``None`` for COUNT(*))."""
    columns = [
        schema.column_index(spec.column) if spec.column is not None else None
        for spec in specs
    ]
    return (predicate or TruePredicate()).compile(schema), columns


def _fold(
    batches: Batches,
    specs: list[AggregateSpec],
    matches: RowPredicate,
    columns: list[int | None],
) -> list[_Accumulator]:
    """The accumulators of ``specs`` over every row of ``batches`` that is
    real and matches: the per-row loop of every ungrouped aggregation, and
    of each group's run in :func:`group_rows`."""
    if not specs:
        raise QueryError("aggregate needs at least one AggregateSpec")
    accumulators = [_Accumulator(spec) for spec in specs]
    for batch in batches:
        for row in batch:
            if row is None or not matches(row):
                continue
            for accumulator, column in zip(accumulators, columns):
                accumulator.add(row[column] if column is not None else None)
    return accumulators


def aggregate(
    table: FlatStorage,
    specs: list[AggregateSpec],
    predicate: Predicate | None = None,
) -> tuple[Value, ...]:
    """One-pass (optionally fused with selection) aggregation.

    Reads every block exactly once; the running statistics never leave the
    enclave, so only |T| leaks — and with a predicate, not even the number
    of matching rows is observable (the paper's fused operator).
    """
    _, decode, matches, columns = _bind(table.schema, specs, predicate)
    # One batched uniform read pass (R 0 .. R N-1, the per-block scan order),
    # each chunk decoded in one precompiled codec pass; accumulators never
    # leave the enclave.
    batches = (decode(frames) for _, frames in table.scan_framed_chunks())
    accumulators = _fold(batches, specs, matches, columns)
    return tuple(accumulator.result() for accumulator in accumulators)


def aggregate_rows(
    schema: Schema,
    rows: list[Row],
    specs: list[AggregateSpec],
    predicate: Predicate | None = None,
) -> tuple[Value, ...]:
    """:func:`aggregate` over rows already held in the enclave (an index
    segment): the same fold, no untrusted access."""
    matches, columns = _positions(schema, specs, predicate)
    accumulators = _fold([rows], specs, matches, columns)
    return tuple(accumulator.result() for accumulator in accumulators)


def _group_output_schema(
    schema: Schema, group_column: str, specs: list[AggregateSpec]
) -> Schema:
    """Schema of a GROUP BY result: the group key plus one FLOAT per spec.

    Aggregates are emitted as FLOAT uniformly so the output schema (which is
    public) does not depend on the data.
    """
    columns: list[Column] = [schema.column(group_column)]
    for i, spec in enumerate(specs):
        columns.append(float_column(f"agg{i}_{spec.function.value}"))
    return Schema(columns)


def group_rows(
    schema: Schema,
    rows: list[Row],
    group_column: str,
    specs: list[AggregateSpec],
    predicate: Predicate | None = None,
) -> list[Row]:
    """:func:`group_by_aggregate` over rows already held in the enclave (an
    index segment), its result rows returned rather than written out: the
    matching rows sorted by group key, each run of one key folded on its
    own.  No untrusted access."""
    if not specs:
        raise QueryError("group_by_aggregate needs at least one AggregateSpec")
    matches, columns = _positions(schema, specs, predicate)
    key = itemgetter(schema.column_index(group_column))
    runs = groupby(sorted(filter(matches, rows), key=key), key)
    return [
        (value,)
        + tuple(
            float(accumulator.result())
            for accumulator in _fold([list(run)], specs, matches, columns)
        )
        for value, run in runs
    ]


def hash_group_rows(
    table: FlatStorage,
    group_column: str,
    specs: list[AggregateSpec],
    predicate: Predicate | None = None,
) -> list[Row] | None:
    """The hash build of grouped aggregation (Section 4.2): the result rows
    sorted by group key, or ``None`` when the group table outgrew oblivious
    memory.

    One uniform read pass; the per-group accumulator table lives in
    oblivious memory and is released before returning.  An overflow is
    reported after the read pass has finished, so the pass reads every
    block whichever chunk the table overflowed in.
    """
    if not specs:
        raise QueryError("group_by_aggregate needs at least one AggregateSpec")
    enclave = table.enclave
    schema = table.schema
    narrow, decode, matches, columns = _bind(schema, specs, predicate, group_column)
    group_index = narrow.column_index(group_column)

    groups: dict[Value, list[_Accumulator]] = {}
    per_group_bytes = schema.column(group_column).byte_width + len(specs) * (
        _Accumulator.BYTES
    )
    reserved = 0
    chunks = table.scan_framed_chunks()
    try:
        # Hash build: one batched uniform read pass (R 0 .. R N-1, exactly
        # the per-block loop's order), each chunk decoded in one precompiled
        # codec pass; the group table lives in oblivious memory.
        for _, frames in chunks:
            for row in decode(frames):
                if row is None or not matches(row):
                    continue
                key = row[group_index]
                accumulators = groups.get(key)
                if accumulators is None:
                    enclave.oblivious.allocate(per_group_bytes)
                    reserved += per_group_bytes
                    accumulators = [_Accumulator(spec) for spec in specs]
                    groups[key] = accumulators
                for accumulator, column in zip(accumulators, columns):
                    accumulator.add(row[column] if column is not None else None)
    except ObliviousMemoryError:
        for _ in chunks:  # R through N-1: the overflow's chunk must not show
            pass
        return None
    finally:
        enclave.oblivious.release(reserved)
    return [
        (key,) + tuple(float(accumulator.result()) for accumulator in accumulators)
        for key, accumulators in sorted(groups.items())
    ]


def check_group_count(groups: int, capacity: int) -> None:
    """Refuse more real groups than a (padded) output holds: an expected,
    data-dependent error under padding."""
    if groups > capacity:
        raise StorageError(
            f"GROUP BY found {groups} groups, more than its output capacity {capacity}"
        )


def group_by_aggregate(
    table: FlatStorage,
    group_column: str,
    specs: list[AggregateSpec],
    predicate: Predicate | None = None,
    output_groups: int | None = None,
) -> FlatStorage:
    """Hash-bucketed grouped aggregation (Section 4.2), into an output table.

    The hash build (:func:`hash_group_rows`), then its rows written out.
    ``output_groups`` (from the planner) sizes the output table; if omitted
    it is discovered during the pass (the group count is part of the leaked
    output size either way).  Falls back to the sort-based algorithm when
    oblivious memory cannot hold the group table; its output is sized by
    the input, whatever ``output_groups`` says, so a caller that pads
    checks the groups it reads back (:func:`check_group_count`, as the
    engine does on every path).

    The output is written in one pass over its whole capacity — the groups,
    then dummies — so the trace is the capacity's, never the group count's
    (an empty GROUP BY writes its one slot; a padded one, ``output_groups``
    slots).  More groups than ``output_groups`` raise
    :class:`~repro.enclave.errors.StorageError` before any output write.
    The engine answers a GROUP BY over a flat table from the hash build's
    rows instead, with no output table (``GroupByNode.in_enclave``).
    """
    rows = hash_group_rows(table, group_column, specs, predicate)
    if rows is None:
        return _sorted_group_aggregate(table, group_column, specs, predicate)
    capacity = max(1, output_groups if output_groups is not None else len(rows))
    check_group_count(len(rows), capacity)  # before any write
    output = FlatStorage(
        table.enclave, _group_output_schema(table.schema, group_column, specs), capacity
    )
    try:
        output.write_all(rows)
    except BaseException:
        output.free()
        raise
    return output


def _sorted_group_aggregate(
    table: FlatStorage,
    group_column: str,
    specs: list[AggregateSpec],
    predicate: Predicate | None,
) -> FlatStorage:
    """Opaque's sort-and-filter fallback: O(N log² N), no group table.

    Copies the input to a padded scratch, obliviously sorts by group key
    (dummies and filtered-out rows last), then merges adjacent equal keys in
    one linear scan, writing one output row per scanned row (real on group
    boundaries, dummy otherwise) — so the pattern is again size-only.
    """
    enclave = table.enclave
    schema = table.schema
    group_index = schema.column_index(group_column)
    columns = [
        schema.column_index(spec.column) if spec.column is not None else None
        for spec in specs
    ]

    scratch = FlatStorage(enclave, schema, padded_scratch(max(1, table.capacity)))

    # Filter-copy front: the shared repro.oblivious front — one
    # interleaved-exchange pass, R table[i], W scratch[i] per row, the
    # per-block loop's exact two-region trace.  Keepers' framed bytes are
    # copied through without a codec round trip; non-keepers become dummies
    # (same frame either way, so nothing leaks).
    filter_copy(table, scratch, predicate or TruePredicate())
    sort_column = schema.column(group_column)

    def sort_key(row: Row) -> tuple:
        if sort_column.type is ColumnType.FLOAT:
            return (row[group_index],)
        return (sort_column.sort_key(row[group_index]),)

    # Size the sort to whatever oblivious memory is actually free; with none
    # to spare, fall back to the pure bitonic network (0 OM).
    row_bytes = schema.row_size + 1
    chunk_rows = enclave.oblivious.free_bytes // (2 * row_bytes)
    if chunk_rows >= 2 and scratch.capacity >= 2:
        chunk = 1
        while chunk * 2 <= chunk_rows and chunk * 2 <= scratch.capacity:
            chunk *= 2
        external_oblivious_sort(scratch, sort_key, chunk)
    else:
        bitonic_sort(scratch, sort_key)

    # Merge scan: real rows of one group are now adjacent, with dummies (and
    # filtered rows) sorted to the tail.  Step i reads scratch[i] and writes
    # output[i] exactly once — a completed group's row if the group ended at
    # i-1, a dummy otherwise — plus one final write for a group ending at the
    # tail.  Runs as one interleaved-exchange pass (R scratch[i], W output[i]
    # per row, the per-row loop's trace) with the open group's accumulators
    # carried across chunks inside the enclave, then the single tail write.
    out_schema = _group_output_schema(schema, group_column, specs)
    output = FlatStorage(enclave, out_schema, scratch.capacity + 1)
    out_dummy = frame_dummy(out_schema)
    scratch_schema = scratch.schema
    open_key: Value | None = None
    accumulators: list[_Accumulator] = []
    emitted = 0

    def completed_row() -> tuple[Value, ...]:
        assert open_key is not None
        return (open_key,) + tuple(
            float(accumulator.result()) for accumulator in accumulators
        )

    def merge(offset: int, frames: list[bytes]) -> list[bytes]:
        nonlocal open_key, accumulators, emitted
        out = []
        for row in scratch_schema.decode_framed_rows(frames):
            group_ended = open_key is not None and (
                row is None or row[group_index] != open_key
            )
            if group_ended:
                out.append(frame_row_validated(out_schema, completed_row()))
                emitted += 1
                open_key = None
            else:
                out.append(out_dummy)
            if row is not None:
                if open_key is None:
                    open_key = row[group_index]
                    accumulators = [_Accumulator(spec) for spec in specs]
                for accumulator, column in zip(accumulators, columns):
                    accumulator.add(row[column] if column is not None else None)
        return out

    scratch.interleave_to(
        output, [(index, index) for index in range(scratch.capacity)], merge
    )
    if open_key is not None:
        output.write_row(scratch.capacity, completed_row())
        emitted += 1
    else:
        output.write_row(scratch.capacity, None)
    output._used = emitted
    scratch.free()
    return output
