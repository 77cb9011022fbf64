"""Selection planning: pick among the Section 4.1 algorithms (Section 5).

The planner converts the statistics pass's (match count, continuity) plus
the public oblivious-memory budget into modeled block-access costs for each
applicable algorithm and picks the cheapest.  A precomputed threshold rule
decides the Large case, mirroring the paper's description; users can force
an operator for "maximum flexibility".

Cost expressions (block accesses; N = input capacity, R = output size,
S = buffer rows in oblivious memory):

* Small       N·ceil(R/S) reads + R writes
* Large       2N + 2N (copy, then clear pass)
* Continuous  N reads + 2·N output accesses
* Hash        N reads + 2·10·N output accesses
* Naive       never chosen (baseline; ~2·log(R) accesses per row)
"""

from __future__ import annotations

from dataclasses import dataclass

from ..enclave.errors import PlannerError
from ..operators.predicate import Predicate
from ..storage.flat import FlatStorage
from ..storage.rows import framed_size
from .plan import SelectAlgorithm
from .stats import SelectionStats, scan_statistics

#: Output/input ratio above which the Large algorithm is preferred.
LARGE_SELECTIVITY_THRESHOLD = 0.5

#: Cap on the Small algorithm's buffer, matching the paper's point that it
#: "uses whatever quantity of oblivious memory is made available to it".
MAX_SMALL_BUFFER_FRACTION = 0.8


@dataclass(frozen=True)
class SelectDecision:
    """The planner's output: an algorithm plus the sizes that justified it."""

    algorithm: SelectAlgorithm
    stats: SelectionStats
    buffer_rows: int

    @property
    def compact_output(self) -> bool:
        """The planner path tightens a Hash selection's chain table to |R|
        rows through the oblivious-compaction back end, so downstream
        operators touch |R| blocks instead of 5·|R| (direct ``hash_select``
        callers keep the paper's raw chain-table shape)."""
        return self.algorithm is SelectAlgorithm.HASH


def plan_select(
    table: FlatStorage,
    predicate: Predicate,
    allow_continuous: bool = True,
    force: SelectAlgorithm | None = None,
) -> SelectDecision:
    """Run the statistics pass and choose a SELECT algorithm.

    ``allow_continuous=False`` disables the Continuous algorithm (its choice
    leaks result adjacency; Section 7.1 disables it against Opaque).
    ``force`` overrides the decision, as the paper allows users to do —
    except Continuous on non-adjacent matches, which cannot run.
    """
    stats = scan_statistics(table, predicate)
    enclave = table.enclave
    row_bytes = framed_size(table.schema)
    free_rows = enclave.oblivious.free_bytes // row_bytes
    buffer_rows = max(1, int(free_rows * MAX_SMALL_BUFFER_FRACTION))

    if force is None:
        algorithm = _choose(stats, buffer_rows, allow_continuous)
    elif force is SelectAlgorithm.CONTINUOUS and not stats.continuous:
        raise PlannerError("Continuous algorithm forced on non-adjacent matches")
    else:
        algorithm = force
    return SelectDecision(algorithm=algorithm, stats=stats, buffer_rows=buffer_rows)


def _choose(
    stats: SelectionStats,
    buffer_rows: int,
    allow_continuous: bool,
) -> SelectAlgorithm:
    """Threshold-gated cost comparison (Section 5).

    Thresholds decide *applicability* — Large only when the output is most
    of the table, Continuous only when matches are adjacent (and allowed) —
    and block-access cost expressions pick the cheapest applicable
    algorithm.  Hash and Small are always applicable.
    """
    n = stats.input_capacity
    r = stats.matching_rows
    if n == 0 or r == 0:
        # Empty output: every algorithm degenerates to one scan; Hash keeps
        # the pattern identical to the general case.
        return SelectAlgorithm.HASH
    passes = (r + buffer_rows - 1) // buffer_rows
    costs: dict[SelectAlgorithm, int] = {
        SelectAlgorithm.SMALL: n * passes + r,
        SelectAlgorithm.HASH: 21 * n,
    }
    if stats.continuous and allow_continuous:
        costs[SelectAlgorithm.CONTINUOUS] = 3 * n
    if stats.selectivity >= LARGE_SELECTIVITY_THRESHOLD:
        costs[SelectAlgorithm.LARGE] = 4 * n
    return min(costs, key=lambda algorithm: costs[algorithm])
