"""The planner's preliminary statistics scan (Section 5).

Before executing a selection, ObliDB makes one fast pass over the table
tracking (1) the number of rows satisfying the predicate and (2) whether
those rows are adjacent.  The scan's access pattern is always the same —
read each row, update enclave-side counters — so the only leakage planning
introduces is the final operator choice.  The paper calls the scan "for
free" because most operators need the output size up front anyway, to
allocate output structures before filling them.  Here it is free in a
stronger sense: with ``keep`` it also buffers the first matches the way the
Small algorithm's first pass does (Figure 4A), so the engine's planned
selections read the table once for both (:class:`~repro.planner.
select_planner.SelectDecision` ``in_enclave`` / ``resumed``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..operators.predicate import Predicate
from ..storage.flat import FlatStorage
from ..storage.rows import framed_size


@dataclass(frozen=True)
class SelectionStats:
    """What the statistics pass learns about a selection.

    ``kept`` holds the frames of the first matches when the pass was asked
    to keep them (``None`` otherwise) and ``cursor`` the index of the last
    one, where Small's next pass resumes; both stay in the enclave and take
    no part in equality.
    """

    input_capacity: int
    matching_rows: int
    continuous: bool
    first_match_index: int  # -1 when nothing matches
    kept: list[bytes] | None = field(default=None, compare=False, repr=False)
    cursor: int = field(default=-1, compare=False, repr=False)

    @property
    def selectivity(self) -> float:
        """Fraction of the table's data structure the output occupies."""
        if self.input_capacity == 0:
            return 0.0
        return self.matching_rows / self.input_capacity


def scan_statistics(
    table: FlatStorage, predicate: Predicate, keep: int = 0
) -> SelectionStats:
    """One uniform read pass computing match count and adjacency.

    Reads the table in batched chunks (trace: ``R 0..capacity-1``, the
    per-block loop's sequence) and decodes each chunk in one codec pass,
    through the reader of the predicate's columns only.

    ``keep > 0`` also buffers the frames of the first ``keep`` matches, in
    scan order, under the oblivious-memory reservation Small's buffer takes
    (``keep`` framed rows) — the buffer Small's first pass fills.  The trace
    is the same either way.

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
    kept: list[bytes] = []
    cursor = -1
    with table.enclave.oblivious_buffer(keep * framed_size(table.schema)):
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
                    if matching < keep:
                        kept.append(frames[index - start])
                        cursor = index
                    matching += 1
                elif matching > 0:
                    interrupted = True
    return SelectionStats(
        input_capacity=table.capacity,
        matching_rows=matching,
        continuous=matching > 0 and not broken,
        first_match_index=first,
        kept=kept if keep else None,
        cursor=cursor,
    )
