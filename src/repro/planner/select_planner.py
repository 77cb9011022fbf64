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
from ..operators.select import small_compacts
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

    @property
    def in_enclave(self) -> bool:
        """The statistics pass kept every match (|R| ≤ ``buffer_rows``, 0
        included): the kept frames are the answer, and no algorithm runs."""
        return self.stats.kept is not None and self.stats.matching_rows <= self.buffer_rows

    @property
    def resumed(self) -> bool:
        """Small is chosen, runs its passes (rather than handing over to
        compaction) and resumes from the statistics pass's full buffer."""
        return (
            self.stats.kept is not None
            and not self.in_enclave
            and self.algorithm is SelectAlgorithm.SMALL
            and not small_compacts(
                self.stats.input_capacity, self.stats.matching_rows, self.buffer_rows
            )
        )


def plan_select(
    table: FlatStorage,
    predicate: Predicate,
    allow_continuous: bool = True,
    force: SelectAlgorithm | None = None,
    keep: bool = False,
) -> SelectDecision:
    """Run the statistics pass and choose a SELECT algorithm.

    ``allow_continuous=False`` disables the Continuous algorithm (its choice
    leaks result adjacency; Section 7.1 disables it against Opaque).
    ``force`` overrides the decision, as the paper allows users to do —
    except Continuous on non-adjacent matches, and Small when free
    oblivious memory holds no framed row (``buffer_rows`` 0), which cannot
    run.

    With ``keep=True`` (and no forced algorithm) the pass is also Small's
    first pass: it keeps the first ``buffer_rows`` matching frames when
    Small's buffer fits free oblivious memory (see
    :attr:`SelectDecision.in_enclave` / :attr:`SelectDecision.resumed`).
    The engine's compiler asks for it on every table but the paper's; a
    direct caller gets the paper's separate pass by default.  The choice of
    algorithm does not depend on it.
    """
    enclave = table.enclave
    row_bytes = framed_size(table.schema)
    free_bytes = enclave.oblivious.free_bytes
    buffer_rows = int(free_bytes // row_bytes * MAX_SMALL_BUFFER_FRACTION)
    if force is SelectAlgorithm.SMALL and buffer_rows < 1:
        raise PlannerError(
            f"Small algorithm forced with no buffer: {free_bytes} B free "
            f"holds no {row_bytes} B framed row"
        )
    keeps = keep and force is None and buffer_rows * row_bytes <= free_bytes
    stats = scan_statistics(table, predicate, keep=buffer_rows if keeps else 0)

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
    algorithm.  Hash is always applicable, Small whenever oblivious memory
    holds its buffer (``buffer_rows`` ≥ 1).
    """
    n = stats.input_capacity
    r = stats.matching_rows
    if n == 0 or r == 0:
        # Empty output: every algorithm degenerates to one scan; Hash keeps
        # the pattern identical to the general case.  The engine answers it
        # from the statistics pass instead (``SelectDecision.in_enclave``)
        # wherever that pass keeps matches: only with ``keep=True``, which
        # the compiler passes on every table but the paper's.
        return SelectAlgorithm.HASH
    costs: dict[SelectAlgorithm, int] = {}
    if buffer_rows >= 1:
        passes = (r + buffer_rows - 1) // buffer_rows
        costs[SelectAlgorithm.SMALL] = n * passes + r
    costs[SelectAlgorithm.HASH] = 21 * n
    if stats.continuous and allow_continuous:
        costs[SelectAlgorithm.CONTINUOUS] = 3 * n
    if stats.selectivity >= LARGE_SELECTIVITY_THRESHOLD:
        costs[SelectAlgorithm.LARGE] = 4 * n
    return min(costs, key=lambda algorithm: costs[algorithm])
