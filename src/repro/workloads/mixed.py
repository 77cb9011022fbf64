"""The mixed workloads L1–L5 of Figure 12.

Figure 12 runs five operation mixes against a 100,000-row table stored
flat, indexed, or both, and reports operations per second.  The mix table
from the paper:

======== ==== ==== ==== ==== ====
Workload  L1   L2   L3   L4   L5
======== ==== ==== ==== ==== ====
% point     5    0   50   45    0
% small     0   90    0    0    0
% large     5    0   50   45   90
% insert   90    9    0    5    5
% delete    0    1    0    5    5
======== ==== ==== ==== ==== ====

Point reads access 1 row, small reads 50 rows, large reads 5 % of the
table.  The runner executes a deterministic pseudo-random stream of
operations against a :class:`~repro.storage.table.Table` of any method and
reports modeled time per operation.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..enclave.errors import StorageError
from ..engine.executor import run_select_algorithm
from ..operators.predicate import And, Comparison
from ..operators.select import materialize_index_range
from ..planner.select_planner import plan_select
from ..storage.table import Table

#: (point, small, large, insert, delete) percentages per workload.
WORKLOADS: dict[str, tuple[int, int, int, int, int]] = {
    "L1": (5, 0, 5, 90, 0),
    "L2": (0, 90, 0, 9, 1),
    "L3": (50, 0, 50, 0, 0),
    "L4": (45, 0, 45, 5, 5),
    "L5": (0, 0, 90, 5, 5),
}

#: Rows touched by each read class (paper's caption).
SMALL_READ_ROWS = 50
LARGE_READ_FRACTION = 0.05


@dataclass
class WorkloadReport:
    """Outcome of one workload run: modeled cost per executed operation."""

    workload: str
    operations: int
    modeled_time_ms: float

    @property
    def ops_per_second(self) -> float:
        if self.modeled_time_ms <= 0:
            return float("inf")
        return self.operations / (self.modeled_time_ms / 1000.0)


def _point_read(table: Table, key: int) -> None:
    table.point_lookup(key)


def _range_read(table: Table, low: int, high: int) -> None:
    """A small/large read: an id-range selection on the best access path."""
    predicate = And(Comparison("key", ">=", low), Comparison("key", "<=", high))
    if table.indexed is not None:
        segment = materialize_index_range(table.indexed, low, high)
        segment.free()
        return
    flat = table.require_flat()
    decision = plan_select(flat, predicate)
    output = run_select_algorithm(
        flat,
        predicate,
        decision.algorithm,
        decision.stats.matching_rows,
        buffer_rows=decision.buffer_rows,
        compact_output=decision.compact_output,
    )
    output.free()


def run_workload(
    table: Table,
    workload: str,
    operations: int = 40,
    key_space: int | None = None,
    seed: int = 3,
) -> WorkloadReport:
    """Execute ``operations`` draws from the named mix against ``table``.

    The table is expected to hold rows of
    :data:`~repro.workloads.synthetic.KV_SCHEMA` with keys 0..n-1.  Inserts
    use fresh keys above the existing range; deletes remove previously
    inserted keys so the table size stays roughly constant, as a steady-
    state workload would.
    """
    if workload not in WORKLOADS:
        raise StorageError(f"unknown workload {workload!r}")
    point, small, large, insert, delete = WORKLOADS[workload]
    rng = random.Random(seed)
    n = key_space if key_space is not None else table.used_rows
    large_rows = max(1, int(n * LARGE_READ_FRACTION))
    next_key = n
    inserted: list[int] = []

    start = table.enclave.cost.snapshot()
    executed = 0
    for _ in range(operations):
        draw = rng.randrange(100)
        if draw < point:
            _point_read(table, rng.randrange(n))
        elif draw < point + small:
            low = rng.randrange(max(1, n - SMALL_READ_ROWS))
            _range_read(table, low, low + SMALL_READ_ROWS - 1)
        elif draw < point + small + large:
            low = rng.randrange(max(1, n - large_rows))
            _range_read(table, low, low + large_rows - 1)
        elif draw < point + small + large + insert:
            table.insert((next_key, f"value-{next_key:08d}"), fast=True)
            inserted.append(next_key)
            next_key += 1
        else:
            if inserted:
                table.delete_key(inserted.pop())
            else:
                table.delete_key(rng.randrange(n))
        executed += 1
    delta = table.enclave.cost.delta_since(start)
    return WorkloadReport(
        workload=workload,
        operations=executed,
        modeled_time_ms=delta.modeled_time_ms(),
    )
