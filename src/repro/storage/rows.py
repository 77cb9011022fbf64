"""Row framing: in-use flags and dummy rows.

Every block in flat storage and every B+ tree leaf stores one record plus a
boolean in-use flag (Section 3).  Dummy rows — flag 0 — are what make
oblivious writes possible: rewriting a block with a dummy is outwardly
identical to writing a real row because both produce a fresh ciphertext of
the same length.

The framed form of a row is ``flag byte || encoded row``, always exactly
``schema.row_size + 1`` bytes.  Dummy frames are constant per row size, so
they are interned in a small cache instead of re-built per write;
:func:`frame_row_validated` fuses validation and encoding for the write path
(one UTF-8 encode per STR value).  Runs of frames decode through
``Schema.reader``; :func:`filter_reader` binds a pass's filter to it.
"""

from __future__ import annotations

from typing import Callable, Protocol

from .schema import FrameDecoder, Row, Schema

FLAG_SIZE = 1
_IN_USE = b"\x01"
_DUMMY = b"\x00"

_DUMMY_FRAMES: dict[int, bytes] = {}


def framed_size(schema: Schema) -> int:
    """Bytes of a framed row for ``schema`` (flag + fixed-length payload)."""
    return FLAG_SIZE + schema.row_size


def framed_bytes(rows: int, schema: Schema) -> int:
    """Bytes of ``rows`` framed rows of ``schema``: the oblivious memory an
    in-enclave plan node holds for an output of ``rows`` slots (its
    ``capacity``), which the planner's fit rules and the runner both read."""
    return rows * framed_size(schema)


def frame_row(schema: Schema, row: Row) -> bytes:
    """Frame a real row: in-use flag followed by the encoded values."""
    return _IN_USE + schema.encode_row(row)


def frame_row_validated(schema: Schema, row: Row) -> bytes:
    """Frame a real row, validating and encoding it in a single pass."""
    return _IN_USE + schema.validate_and_encode_row(row)


def frame_dummy(schema: Schema) -> bytes:
    """Frame a dummy row: unused flag followed by zero padding.

    The padding is constant rather than random; confidentiality comes from
    the encryption layer, which randomises every ciphertext.
    """
    frame = _DUMMY_FRAMES.get(schema.row_size)
    if frame is None:
        frame = _DUMMY_FRAMES[schema.row_size] = _DUMMY + b"\x00" * schema.row_size
    return frame


def unframe_row(schema: Schema, data: bytes) -> Row | None:
    """Decode a framed row; ``None`` for a dummy."""
    if not data:
        return None
    if data[0] == 0:
        return None
    return schema.decode_row(data, FLAG_SIZE)


class RowFilter(Protocol):
    """A condition a pass filters on — a
    :class:`~repro.operators.predicate.Predicate`."""

    def columns(self) -> set[str]: ...

    def compile(self, schema: Schema) -> Callable[[Row], bool]: ...


def filter_reader(
    schema: Schema, keep: RowFilter | Callable[[Row], bool]
) -> tuple[FrameDecoder, Callable[[Row], bool]]:
    """The decoder and row test for a pass over ``schema`` filtering on
    ``keep``: a predicate is decoded through the reader of its own columns
    and compiled against that reader's narrow schema; a plain row callable
    sees every column."""
    if callable(keep):
        return schema.decode_framed_rows, keep
    narrow, decode = schema.reader(keep.columns())
    return decode, keep.compile(narrow)


def is_dummy(data: bytes) -> bool:
    """True when the framed bytes carry a dummy row."""
    return not data or data[0] == 0
