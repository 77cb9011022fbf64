"""Storage methods: schemas, flat tables, oblivious B+ tree indexes."""

from .btree import DEFAULT_ORDER, ObliviousBPlusTree, index_tree
from .flat import FlatStorage
from ..enclave.integrity import RevisionLedger
from .rows import frame_dummy, frame_row, framed_size, is_dummy, unframe_row
from .schema import (
    Column,
    ColumnType,
    Row,
    Schema,
    Value,
    float_column,
    int_column,
    str_column,
)
from .table import StorageMethod, Table

__all__ = [
    "Column",
    "ColumnType",
    "DEFAULT_ORDER",
    "FlatStorage",
    "ObliviousBPlusTree",
    "RevisionLedger",
    "Row",
    "Schema",
    "StorageMethod",
    "Table",
    "Value",
    "float_column",
    "frame_dummy",
    "frame_row",
    "framed_size",
    "index_tree",
    "int_column",
    "is_dummy",
    "str_column",
    "unframe_row",
]
