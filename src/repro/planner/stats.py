"""The planner's preliminary statistics scan (Section 5).

Before executing a selection, ObliDB makes one fast pass over the table
tracking (1) the number of rows satisfying the predicate and (2) whether
those rows are adjacent.  The scan's access pattern is always the same —
read each row, update enclave-side counters — so the only leakage planning
introduces is the final operator choice.  The scan is "for free" in the
sense that most operators need the output size up front anyway, to allocate
output structures before filling them.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..operators.predicate import Predicate
from ..storage.flat import FlatStorage


@dataclass(frozen=True)
class SelectionStats:
    """What the statistics pass learns about a selection."""

    input_capacity: int
    matching_rows: int
    continuous: bool
    first_match_index: int  # -1 when nothing matches

    @property
    def selectivity(self) -> float:
        """Fraction of the table's data structure the output occupies."""
        if self.input_capacity == 0:
            return 0.0
        return self.matching_rows / self.input_capacity


def scan_statistics(table: FlatStorage, predicate: Predicate) -> SelectionStats:
    """One uniform read pass computing match count and adjacency.

    Reads the table in batched chunks (trace: ``R 0..capacity-1``, the
    per-block loop's sequence) and decodes each chunk in one codec pass,
    through the reader of the predicate's columns only.

    "Adjacent" means the matching rows occupy consecutive *blocks*, i.e. no
    in-use non-matching row sits between two matches (dummy blocks between
    matches do not break continuity: the Continuous algorithm's modular
    write pattern skips nothing observable either way).
    """
    schema, decode = table.schema.reader(predicate.columns())
    matches = predicate.compile(schema)
    matching = 0
    first = -1
    interrupted = False
    broken = False
    for start, frames in table.scan_framed_chunks():
        for index, row in enumerate(decode(frames), start):
            if row is None:
                continue
            if matches(row):
                if interrupted:
                    # A real non-match separated two matches: not continuous.
                    broken = True
                if first == -1:
                    first = index
                matching += 1
            elif matching > 0:
                interrupted = True
    return SelectionStats(
        input_capacity=table.capacity,
        matching_rows=matching,
        continuous=matching > 0 and not broken,
        first_match_index=first,
    )
