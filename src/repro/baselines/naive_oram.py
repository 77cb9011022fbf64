"""Naive ORAM baseline: the generic "just wrap everything in ORAM" port.

The introduction's claim — ObliDB's operators give "speedups of up to an
order of magnitude over naive ORAM" — is against the generic approach of
storing the table in an ORAM and running the textbook operator on top, one
ORAM operation per row touched.  This module provides that strawman: a
table whose every row read/write is an individual Path ORAM access, with a
select that performs one input ORAM read plus one output ORAM operation per
row (cf. the "Naive" row of Figure 3: O(N log N)).  Both ORAMs are the
paper's construction (``treetop_levels=0``): the baseline prices what the
paper compared against, not this system's cached tree.
"""

from __future__ import annotations

import random

from ..enclave.enclave import Enclave
from ..operators.predicate import Predicate
from ..oram.path_oram import PathORAM
from ..storage.rows import frame_row, framed_size, unframe_row
from ..storage.schema import Row, Schema


class NaiveORAMTable:
    """A table held entirely inside one Path ORAM, one row per block."""

    def __init__(
        self,
        enclave: Enclave,
        schema: Schema,
        capacity: int,
        rng: random.Random | None = None,
    ) -> None:
        self.enclave = enclave
        self.schema = schema
        self._capacity = capacity
        self._oram = PathORAM(
            enclave,
            capacity,
            framed_size(schema),
            rng=rng or random.Random(),
            treetop_levels=0,
        )
        self._used = 0

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def used_rows(self) -> int:
        return self._used

    def insert(self, row: Row) -> None:
        """Append via one ORAM write (position tracked in the client)."""
        self._oram.write(self._used, frame_row(self.schema, self.schema.validate_row(row)))
        self._used += 1

    def read_row(self, index: int) -> Row | None:
        framed = self._oram.read(index)
        if framed is None:
            return None
        return unframe_row(self.schema, framed)

    def select(self, predicate: Predicate) -> list[Row]:
        """The naive oblivious select: 2 ORAM ops per row of the table.

        For each row: one input read, then one output ORAM operation (write
        on match, dummy otherwise) into a second ORAM sized to the output,
        exactly as the Figure 3 "Naive Select" baseline describes.
        """
        matches = predicate.compile(self.schema)
        rows = [self.read_row(index) for index in range(self._capacity)]
        selected = [row for row in rows if row is not None and matches(row)]
        output = PathORAM(
            self.enclave,
            max(1, len(selected)),
            framed_size(self.schema),
            rng=random.Random(0),
            treetop_levels=0,
        )
        position = 0
        for row in rows:
            if row is not None and matches(row):
                output.write(position, frame_row(self.schema, row))
                position += 1
            else:
                output.dummy_access()
        result = []
        for index in range(position):
            framed = output.read(index)
            assert framed is not None
            row = unframe_row(self.schema, framed)
            assert row is not None
            result.append(row)
        output.free()
        return result

    def free(self) -> None:
        self._oram.free()
