"""Join planning (Section 5).

Join planning needs even less information than selection: every Section 4.3
join's cost and output-structure size depend only on the input table sizes
and the oblivious memory available — never on the data — so the planner
reads two stored sizes and evaluates three cost expressions.  Per the
paper: if oblivious memory is large relative to the first table, always
hash join; otherwise plug sizes into the asymptotic runtimes and take the
smaller.

Cost expressions in block accesses (N = |T1|, M = |T2|, S = oblivious
memory in rows, U = N + M padded to a power of two):

* hash    N + ceil(N/S)·M·3          (read T1 once; per chunk, read M and
                                      write M outputs)
* opaque  U·log²(U/S)·4 + 2U          (chunked oblivious sort + merge scan)
* 0-OM    U·log²(U)·2 + 2U            (bitonic network + merge scan)
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..storage.flat import FlatStorage
from ..storage.rows import framed_size
from .plan import JoinAlgorithm


@dataclass(frozen=True)
class JoinDecision:
    """The planner's join choice plus the sizes that justified it."""

    algorithm: JoinAlgorithm
    oblivious_memory_bytes: int
    oblivious_rows: int


def _log2_sq(x: float) -> float:
    log = math.log2(max(2.0, x))
    return log * log


def estimate_join_costs(
    n1: int, n2: int, oblivious_rows: int
) -> dict[JoinAlgorithm, float]:
    """Modeled block-access cost of each join algorithm."""
    union = max(2, n1 + n2)
    s = max(1, oblivious_rows)
    chunks = math.ceil(max(1, n1) / s)
    return {
        JoinAlgorithm.HASH: n1 + chunks * n2 * 3.0,
        JoinAlgorithm.OPAQUE: union * _log2_sq(union / s) * 4.0 + 2 * union,
        JoinAlgorithm.ZERO_OM: union * _log2_sq(union) * 2.0 + 2 * union,
    }


def plan_join(
    table1: FlatStorage,
    table2: FlatStorage,
    force: JoinAlgorithm | None = None,
) -> JoinDecision:
    """Choose a join algorithm from sizes and the oblivious-memory budget.

    Reads only the two tables' recorded sizes — no data access at all, so
    join planning leaks nothing beyond the final algorithm choice.
    """
    enclave = table1.enclave
    oblivious_bytes = enclave.oblivious.free_bytes
    row_bytes = framed_size(table1.schema) + 16
    oblivious_rows = max(1, oblivious_bytes // row_bytes)
    n1, n2 = table1.capacity, table2.capacity

    if force is not None:
        algorithm = force
    elif oblivious_rows >= n1:
        # OM holds all of T1: the hash join is one pass over each table.
        algorithm = JoinAlgorithm.HASH
    elif oblivious_rows < 2:
        algorithm = JoinAlgorithm.ZERO_OM
    else:
        costs = estimate_join_costs(n1, n2, oblivious_rows)
        # The 0-OM join exists for enclaves with no oblivious memory; with
        # any OM available the Opaque join dominates it (Section 7.2).
        algorithm = min(
            (JoinAlgorithm.HASH, JoinAlgorithm.OPAQUE), key=lambda a: costs[a]
        )
    return JoinDecision(
        algorithm=algorithm,
        oblivious_memory_bytes=oblivious_bytes,
        oblivious_rows=oblivious_rows,
    )
