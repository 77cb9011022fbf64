"""Table schemas and the fixed-length row codec.

ObliDB's implementation assumes fixed-length records (Section 3), which is
what makes every sealed block the same size and thus keeps block contents
from leaking row lengths.  A :class:`Schema` is an ordered list of typed
:class:`Column` definitions; the codec maps a row (tuple of Python values)
to exactly ``schema.row_size`` bytes and back.

Supported column types:

* ``INT`` — 64-bit signed integer,
* ``FLOAT`` — IEEE-754 double,
* ``STR`` — UTF-8, padded to a declared fixed byte width.

INT and STR columns may serve as index keys; their ``sort_key`` encodings are
order-preserving byte strings so the B+ tree can compare sealed keys after
decryption without type dispatch.

The whole-row codec is precompiled: each :class:`Schema` builds one
``struct.Struct`` format string covering every column, so ``encode_row`` /
``decode_row`` are a single ``pack``/``unpack`` call rather than a per-column
Python loop.  ``validate_and_encode_row`` fuses validation with encoding so
STR values are UTF-8 encoded exactly once on the write path.

Batches of framed rows decode through :meth:`Schema.reader`: one
precompiled ``struct`` per column set that skips the columns a pass does not
use (``{width}x`` pad bytes), so a scan that filters on two INT columns never
strips or decodes a wide STR column.  ``decode_framed_rows`` is the
all-columns reader.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Iterable, Sequence

from ..enclave.errors import SchemaError

Value = int | float | str
Row = tuple[Value, ...]
#: A batch decoder: framed rows → one row (or ``None`` for a dummy) each.
FrameDecoder = Callable[[Sequence[bytes]], "list[Row | None]"]

_INT = struct.Struct("<q")
_FLOAT = struct.Struct("<d")
_INT_BIAS = 1 << 63  # maps signed 64-bit ints onto unsigned, preserving order


class ColumnType(Enum):
    """The three fixed-width column types of the reproduction."""

    INT = "int"
    FLOAT = "float"
    STR = "str"


@dataclass(frozen=True)
class Column:
    """One typed column.  ``size`` is required (bytes) for STR columns."""

    name: str
    type: ColumnType
    size: int = 0

    def __post_init__(self) -> None:
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.type is ColumnType.STR:
            if self.size < 1:
                raise SchemaError(f"STR column {self.name!r} needs a positive size")
        elif self.size:
            raise SchemaError(f"{self.type.value} column {self.name!r} takes no size")

    @property
    def byte_width(self) -> int:
        """Encoded width of this column in a row."""
        if self.type is ColumnType.STR:
            return self.size
        return 8

    def validate(self, value: Value) -> None:
        """Check ``value`` fits this column; raises :class:`SchemaError`."""
        if self.type is ColumnType.INT:
            if not isinstance(value, int) or isinstance(value, bool):
                raise SchemaError(f"column {self.name!r} expects int, got {value!r}")
        elif self.type is ColumnType.FLOAT:
            if not isinstance(value, (int, float)) or isinstance(value, bool):
                raise SchemaError(f"column {self.name!r} expects float, got {value!r}")
        else:
            if not isinstance(value, str):
                raise SchemaError(f"column {self.name!r} expects str, got {value!r}")
            if len(value.encode()) > self.size:
                raise SchemaError(
                    f"value {value!r} exceeds {self.size} bytes in column "
                    f"{self.name!r}"
                )

    def encode(self, value: Value) -> bytes:
        """Fixed-width little-endian encoding (not order-preserving)."""
        if self.type is ColumnType.INT:
            return _INT.pack(value)  # type: ignore[arg-type]
        if self.type is ColumnType.FLOAT:
            return _FLOAT.pack(float(value))
        encoded = value.encode()  # type: ignore[union-attr]
        return encoded.ljust(self.size, b"\x00")

    def decode(self, data: bytes) -> Value:
        """Inverse of :meth:`encode`."""
        if self.type is ColumnType.INT:
            return _INT.unpack(data)[0]
        if self.type is ColumnType.FLOAT:
            return _FLOAT.unpack(data)[0]
        return data.rstrip(b"\x00").decode()

    def sort_key(self, value: Value) -> bytes:
        """Order-preserving byte encoding, for B+ tree keys.

        INT uses a bias so byte-wise comparison matches signed comparison;
        STR is its padded UTF-8 form (byte order = lexicographic order, which
        matches Python ``str`` comparison for ASCII data like dates and ids).
        """
        if self.type is ColumnType.INT:
            return (value + _INT_BIAS).to_bytes(8, "big")  # type: ignore[operator]
        if self.type is ColumnType.FLOAT:
            raise SchemaError(f"FLOAT column {self.name!r} cannot be an index key")
        return self.encode(value)


class Schema:
    """An ordered, named collection of columns with row encode/decode."""

    def __init__(self, columns: Iterable[Column]) -> None:
        columns = tuple(columns)
        if not columns:
            raise SchemaError("schema needs at least one column")
        self._build(columns)

    def _build(self, columns: tuple[Column, ...]) -> None:
        self.columns: tuple[Column, ...] = columns
        names = [column.name for column in self.columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"duplicate column names in {names}")
        self._index = {column.name: i for i, column in enumerate(self.columns)}
        self._all_columns = frozenset(self._index)
        self.row_size = sum(column.byte_width for column in self.columns)
        # Precompiled whole-row codec: one struct format covering all columns
        # ("<" disables padding, so the struct size equals row_size exactly).
        self._struct = struct.Struct(
            "<" + "".join(_struct_format(column) for column in self.columns)
        )
        self._str_indices: tuple[int, ...] = tuple(
            i for i, column in enumerate(self.columns) if column.type is ColumnType.STR
        )
        self._readers: dict[frozenset[str], tuple[Schema, FrameDecoder]] = {}

    def __len__(self) -> int:
        return len(self.columns)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Schema) and self.columns == other.columns

    def __hash__(self) -> int:
        return hash(self.columns)

    def column_index(self, name: str) -> int:
        """Position of column ``name``; raises :class:`SchemaError`."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(f"no column named {name!r}") from None

    def column(self, name: str) -> Column:
        return self.columns[self.column_index(name)]

    def has_column(self, name: str) -> bool:
        return name in self._index

    def column_names(self) -> list[str]:
        return [column.name for column in self.columns]

    def validate_row(self, row: Sequence[Value]) -> Row:
        """Validate and normalise a row; raises :class:`SchemaError`."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.columns)} columns"
            )
        for column, value in zip(self.columns, row):
            column.validate(value)
        return tuple(row)

    def validate_and_encode_row(self, row: Sequence[Value]) -> bytes:
        """Validate and encode in one pass (STR values are encoded once).

        Equivalent to ``encode_row(validate_row(row))`` but avoids the double
        UTF-8 encode of STR columns (once for the length check, once for the
        payload); raises :class:`SchemaError` on any mismatch.
        """
        if len(row) != len(self.columns):
            raise SchemaError(
                f"row has {len(row)} values, schema has {len(self.columns)} columns"
            )
        values: list[object] = list(row)
        for i, (column, value) in enumerate(zip(self.columns, row)):
            if column.type is ColumnType.STR:
                if not isinstance(value, str):
                    raise SchemaError(
                        f"column {column.name!r} expects str, got {value!r}"
                    )
                encoded = value.encode()
                if len(encoded) > column.size:
                    raise SchemaError(
                        f"value {value!r} exceeds {column.size} bytes in column "
                        f"{column.name!r}"
                    )
                values[i] = encoded
            else:
                column.validate(value)
        return self._struct.pack(*values)

    def encode_row(self, row: Sequence[Value]) -> bytes:
        """Encode a validated row into exactly ``row_size`` bytes."""
        if self._str_indices:
            values: list[object] = list(row)
            for i in self._str_indices:
                values[i] = values[i].encode()  # type: ignore[union-attr]
            return self._struct.pack(*values)
        return self._struct.pack(*row)

    def decode_row(self, data: bytes, offset: int = 0) -> Row:
        """Inverse of :meth:`encode_row`; decodes ``data[offset:]``."""
        if len(data) - offset < self.row_size:
            raise SchemaError(
                f"row payload of {len(data) - offset} bytes, "
                f"schema needs {self.row_size}"
            )
        unpacked = self._struct.unpack_from(data, offset)
        if self._str_indices:
            values = list(unpacked)
            for i in self._str_indices:
                values[i] = values[i].rstrip(b"\x00").decode()
            return tuple(values)
        return unpacked

    def reader(self, columns: Iterable[str]) -> tuple["Schema", FrameDecoder]:
        """The narrow schema and batch decoder for the columns a pass reads.

        The decoder maps N *framed* rows (in-use flag byte followed by the
        encoded row, the layout of :mod:`repro.storage.rows`) to N narrow
        rows — the values of ``columns`` only, in this schema's column
        order, which is the narrow schema's — with one precompiled
        ``iter_unpack`` walk: the flag byte, then each read column's format
        and ``{width}x`` for each skipped one.  STR columns are stripped and
        decoded only when read.  Dummies (flag 0) come back as ``None``, so
        an empty column set still tells real rows (``()``) from dummies.
        Compiled once per column set and cached on the schema; an unknown
        name raises :class:`SchemaError`.
        """
        key = frozenset(columns)
        cached = self._readers.get(key)
        if cached is None:
            cached = self._readers[key] = self._compile_reader(key)
        return cached

    def _compile_reader(self, names: frozenset[str]) -> tuple["Schema", FrameDecoder]:
        for name in names:
            self.column_index(name)  # SchemaError on an unknown name
        read = tuple(column for column in self.columns if column.name in names)
        parts = ["<B"]
        skip = 0
        for column in self.columns:
            if column.name in names:
                if skip:
                    parts.append(f"{skip}x")
                    skip = 0
                parts.append(_struct_format(column))
            else:
                skip += column.byte_width
        if skip:
            parts.append(f"{skip}x")
        unpack = struct.Struct("".join(parts)).iter_unpack
        frame_bytes = 1 + self.row_size
        # Positions of the read STR columns in the unpacked tuple (flag at 0).
        strings = tuple(
            i for i, column in enumerate(read, 1) if column.type is ColumnType.STR
        )

        def joined(frames: Sequence[bytes]) -> bytes:
            buffer = b"".join(frames)
            if len(buffer) % frame_bytes:
                raise SchemaError(
                    f"framed buffer of {len(buffer)} bytes is not a multiple of "
                    f"{frame_bytes}"
                )
            return buffer

        if strings:

            def decode(frames: Sequence[bytes]) -> list[Row | None]:
                rows: list[Row | None] = []
                append = rows.append
                for unpacked in unpack(joined(frames)):
                    if not unpacked[0]:
                        append(None)
                        continue
                    values = list(unpacked)
                    for i in strings:
                        values[i] = values[i].rstrip(b"\x00").decode()
                    append(tuple(values[1:]))
                return rows

        else:

            def decode(frames: Sequence[bytes]) -> list[Row | None]:
                return [
                    unpacked[1:] if unpacked[0] else None
                    for unpacked in unpack(joined(frames))
                ]

        narrow = self if len(read) == len(self.columns) else _narrow_schema(read)
        return narrow, decode

    @property
    def decode_framed_rows(self) -> FrameDecoder:
        """The all-columns reader's decoder: framed rows → full rows, with
        ``None`` for dummies (:meth:`reader` over every column)."""
        return self.reader(self._all_columns)[1]

    def project(self, names: Sequence[str]) -> "Schema":
        """A new schema containing only ``names``, in the given order."""
        return Schema(self.column(name) for name in names)


def _struct_format(column: Column) -> str:
    if column.type is ColumnType.INT:
        return "q"
    if column.type is ColumnType.FLOAT:
        return "d"
    return f"{column.size}s"


def _narrow_schema(columns: tuple[Column, ...]) -> Schema:
    """The schema of a reader's rows.  Unlike a table's, it may be empty:
    a pass that reads no column still binds against it (and a bound name
    raises :class:`SchemaError`)."""
    if columns:
        return Schema(columns)
    narrow = Schema.__new__(Schema)
    narrow._build(())
    return narrow


def int_column(name: str) -> Column:
    """Convenience constructor for an INT column."""
    return Column(name, ColumnType.INT)


def float_column(name: str) -> Column:
    """Convenience constructor for a FLOAT column."""
    return Column(name, ColumnType.FLOAT)


def str_column(name: str, size: int) -> Column:
    """Convenience constructor for a STR column of fixed byte width."""
    return Column(name, ColumnType.STR, size)
