"""Unit tests for schemas and the fixed-length row codec."""

from __future__ import annotations

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.enclave import SchemaError
from repro.storage import (
    Column,
    ColumnType,
    Schema,
    float_column,
    frame_dummy,
    frame_row,
    int_column,
    str_column,
)


class TestColumn:
    def test_int_width(self) -> None:
        assert int_column("a").byte_width == 8

    def test_str_width(self) -> None:
        assert str_column("s", 20).byte_width == 20

    def test_str_requires_size(self) -> None:
        with pytest.raises(SchemaError):
            Column("s", ColumnType.STR)

    def test_int_rejects_size(self) -> None:
        with pytest.raises(SchemaError):
            Column("a", ColumnType.INT, 4)

    def test_empty_name_rejected(self) -> None:
        with pytest.raises(SchemaError):
            Column("", ColumnType.INT)

    def test_int_validation(self) -> None:
        column = int_column("a")
        column.validate(42)
        with pytest.raises(SchemaError):
            column.validate("nope")
        with pytest.raises(SchemaError):
            column.validate(True)  # bools are not ints here

    def test_str_validation_length(self) -> None:
        column = str_column("s", 4)
        column.validate("abcd")
        with pytest.raises(SchemaError):
            column.validate("abcde")

    def test_str_validation_utf8_bytes(self) -> None:
        """Width is counted in encoded bytes, not characters."""
        column = str_column("s", 4)
        column.validate("hél")  # 4 UTF-8 bytes: fits exactly
        with pytest.raises(SchemaError):
            column.validate("héll")  # 5 UTF-8 bytes in 4 characters

    def test_float_validation(self) -> None:
        column = float_column("f")
        column.validate(1.5)
        column.validate(2)  # ints are acceptable floats
        with pytest.raises(SchemaError):
            column.validate("x")

    def test_int_codec_roundtrip(self) -> None:
        column = int_column("a")
        for value in (0, 1, -1, 2**62, -(2**62)):
            assert column.decode(column.encode(value)) == value

    def test_str_codec_roundtrip(self) -> None:
        column = str_column("s", 10)
        for value in ("", "a", "hello", "héllo"):
            assert column.decode(column.encode(value)) == value

    def test_float_codec_roundtrip(self) -> None:
        column = float_column("f")
        assert column.decode(column.encode(3.25)) == 3.25

    def test_int_sort_key_order_preserving(self) -> None:
        column = int_column("a")
        values = [-(2**40), -5, 0, 3, 2**40]
        keys = [column.sort_key(v) for v in values]
        assert keys == sorted(keys)

    def test_str_sort_key_order_preserving(self) -> None:
        column = str_column("s", 12)
        values = ["", "2018-01-01", "2018-09-01", "a", "ab"]
        keys = [column.sort_key(v) for v in values]
        assert keys == sorted(keys)

    def test_float_sort_key_rejected(self) -> None:
        with pytest.raises(SchemaError):
            float_column("f").sort_key(1.0)


class TestSchema:
    def test_row_size(self, kv_schema: Schema) -> None:
        assert kv_schema.row_size == 8 + 16

    def test_empty_schema_rejected(self) -> None:
        with pytest.raises(SchemaError):
            Schema([])

    def test_duplicate_names_rejected(self) -> None:
        with pytest.raises(SchemaError):
            Schema([int_column("a"), int_column("a")])

    def test_column_lookup(self, kv_schema: Schema) -> None:
        assert kv_schema.column_index("value") == 1
        assert kv_schema.column("key").type is ColumnType.INT
        with pytest.raises(SchemaError):
            kv_schema.column_index("ghost")

    def test_row_roundtrip(self, kv_schema: Schema) -> None:
        row = (7, "hello")
        assert kv_schema.decode_row(kv_schema.encode_row(row)) == row

    def test_validate_row_length(self, kv_schema: Schema) -> None:
        with pytest.raises(SchemaError):
            kv_schema.validate_row((1,))
        with pytest.raises(SchemaError):
            kv_schema.validate_row((1, "x", 3))

    def test_validate_row_types(self, kv_schema: Schema) -> None:
        with pytest.raises(SchemaError):
            kv_schema.validate_row(("one", "x"))

    def test_decode_short_payload_rejected(self, kv_schema: Schema) -> None:
        with pytest.raises(SchemaError):
            kv_schema.decode_row(b"\x00" * 3)

    def test_project(self, wide_schema: Schema) -> None:
        projected = wide_schema.project(["measure", "id"])
        assert projected.column_names() == ["measure", "id"]
        assert projected.row_size == 16

    def test_equality_and_hash(self, kv_schema: Schema) -> None:
        clone = Schema([int_column("key"), str_column("value", 16)])
        assert kv_schema == clone
        assert hash(kv_schema) == hash(clone)


# ----------------------------------------------------------------------
# Schema.reader: the column-set codec
# ----------------------------------------------------------------------
_TEXT = st.characters(exclude_characters="\x00", exclude_categories=("Cs",))


def _values(column: Column) -> st.SearchStrategy:
    """Any value of ``column``; a STR value is empty, fills the width
    exactly with multi-byte UTF-8, or is any text that fits (a trailing NUL
    is the codec's padding, so never part of a value)."""
    if column.type is ColumnType.INT:
        return st.integers(-(2**63), 2**63 - 1)
    if column.type is ColumnType.FLOAT:
        return st.floats(allow_nan=False)
    size = column.size
    return st.one_of(
        st.just(""),
        st.just("é" * (size // 2) + "x" * (size % 2)),
        st.text(_TEXT, max_size=size).filter(lambda text: len(text.encode()) <= size),
    )


@st.composite
def _schemas_and_rows(draw) -> tuple[Schema, list]:
    columns = []
    for i, kind in enumerate(
        draw(st.lists(st.sampled_from(ColumnType), min_size=1, max_size=5))
    ):
        if kind is ColumnType.INT:
            columns.append(int_column(f"c{i}"))
        elif kind is ColumnType.FLOAT:
            columns.append(float_column(f"c{i}"))
        else:
            columns.append(str_column(f"c{i}", draw(st.integers(1, 12))))
    row = st.tuples(*(_values(column) for column in columns))
    rows = draw(st.lists(st.one_of(st.none(), row), max_size=8))
    return Schema(columns), rows


class TestReader:
    @settings(max_examples=60, deadline=None)
    @given(_schemas_and_rows())
    def test_every_column_subset_is_the_projection_of_the_full_decode(
        self, case: tuple[Schema, list]
    ) -> None:
        schema, rows = case
        frames = [
            frame_dummy(schema) if row is None else frame_row(schema, row)
            for row in rows
        ]
        assert schema.decode_framed_rows(frames) == rows
        names = schema.column_names()
        for size in range(len(names) + 1):
            for subset in combinations(names, size):
                narrow, decode = schema.reader(reversed(subset))
                assert narrow.column_names() == list(subset)  # schema order
                positions = [names.index(name) for name in subset]
                assert decode(frames) == [
                    None if row is None else tuple(row[i] for i in positions)
                    for row in rows
                ]

    def test_all_columns_reader_is_decode_framed_rows(self, kv_schema: Schema) -> None:
        narrow, decode = kv_schema.reader(kv_schema.column_names())
        assert narrow is kv_schema
        assert decode is kv_schema.decode_framed_rows

    def test_empty_column_set_reads_only_the_flag(self, kv_schema: Schema) -> None:
        frames = [frame_row(kv_schema, (1, "a")), frame_dummy(kv_schema)]
        narrow, decode = kv_schema.reader([])
        assert narrow.column_names() == []
        assert decode(frames) == [(), None]
        with pytest.raises(SchemaError):
            narrow.column_index("key")

    def test_cached_per_column_set(self, kv_schema: Schema) -> None:
        assert kv_schema.reader(["value"]) is kv_schema.reader({"value"})

    def test_unknown_column_rejected(self, kv_schema: Schema) -> None:
        with pytest.raises(SchemaError):
            kv_schema.reader(["ghost"])

    def test_torn_buffer_rejected(self, kv_schema: Schema) -> None:
        _, decode = kv_schema.reader(["key"])
        with pytest.raises(SchemaError):
            decode([frame_row(kv_schema, (1, "a"))[:-1]])
