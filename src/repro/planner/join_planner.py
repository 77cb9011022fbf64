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
* held    N + ceil(N/S)·M            (the hash join whose output is held in
                                      the enclave: per chunk, read M)
* opaque  U·log²(U/S)·4 + 2U          (chunked oblivious sort + merge scan)
* 0-OM    U·log²(U)·2 + 2U            (bitonic network + merge scan)

Each algorithm is a candidate only if the oblivious memory its operator
reserves (the ``*_reservation`` functions of :mod:`repro.operators.join`,
which the operators call too) fits the free budget, so every plan this
module returns runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..enclave.errors import PlannerError
from ..operators.join import (
    ZERO_OM_RESERVATION,
    hash_join_reservation,
    opaque_join_reservation,
)
from ..storage.flat import FlatStorage
from ..storage.schema import Schema
from .plan import JoinAlgorithm


@dataclass(frozen=True)
class JoinDecision:
    """The planner's join choice plus the sizes that justified it.

    ``in_enclave`` says the hash join's output is held in the enclave
    (:func:`~repro.operators.join.held_hash_join`)."""

    algorithm: JoinAlgorithm
    oblivious_memory_bytes: int
    oblivious_rows: int
    in_enclave: bool = False


def _log2_sq(x: float) -> float:
    log = math.log2(max(2.0, x))
    return log * log


def estimate_join_costs(
    n1: int, n2: int, oblivious_rows: int, held: bool = False
) -> dict[JoinAlgorithm, float]:
    """Modeled block-access cost of each join algorithm; ``held`` prices
    the hash join whose output is held in the enclave."""
    union = max(2, n1 + n2)
    s = max(1, oblivious_rows)
    chunks = math.ceil(max(1, n1) / s)
    return {
        JoinAlgorithm.HASH: n1 + chunks * n2 * (1.0 if held else 3.0),
        JoinAlgorithm.OPAQUE: union * _log2_sq(union / s) * 4.0 + 2 * union,
        JoinAlgorithm.ZERO_OM: union * _log2_sq(union) * 2.0 + 2 * union,
    }


def plan_join(
    table1: FlatStorage,
    table2: FlatStorage,
    force: JoinAlgorithm | None = None,
    held: Schema | None = None,
) -> JoinDecision:
    """Choose a join algorithm from sizes and the oblivious-memory budget.

    Reads only the two tables' recorded sizes — no data access at all, so
    join planning leaks nothing beyond the final algorithm choice.  An
    algorithm whose reservation does not fit free oblivious memory is not a
    candidate; a forced one that does not fit raises :class:`PlannerError`.
    ``held`` is the emitted schema when the output may be held in the
    enclave: a hash join holds it when its hash table and |T2| frames of
    ``held`` fit together.
    """
    enclave = table1.enclave
    oblivious_bytes = enclave.oblivious.free_bytes
    n1, n2 = table1.capacity, table2.capacity
    left, right = table1.schema, table2.schema
    hash_table = hash_join_reservation(left, n1, n2, oblivious_bytes)
    oblivious_rows = hash_table.chunk_rows
    reserves = {
        JoinAlgorithm.HASH: hash_table.nbytes,
        JoinAlgorithm.OPAQUE: opaque_join_reservation(
            left, right, n1, n2, oblivious_bytes
        ).nbytes,
        JoinAlgorithm.ZERO_OM: ZERO_OM_RESERVATION.nbytes,
    }
    fits = {a for a, nbytes in reserves.items() if nbytes <= oblivious_bytes}
    in_enclave = (
        held is not None
        and hash_join_reservation(left, n1, n2, oblivious_bytes, held).nbytes
        <= oblivious_bytes
    )

    if force is not None:
        if force not in fits:
            raise PlannerError(
                f"{force.value} join does not fit {oblivious_bytes} bytes of "
                "free oblivious memory"
            )
        algorithm = force
    elif oblivious_rows >= n1 and JoinAlgorithm.HASH in fits:
        # OM holds all of T1: the hash join is one pass over each table.
        algorithm = JoinAlgorithm.HASH
    elif oblivious_rows < 2:
        algorithm = JoinAlgorithm.ZERO_OM
    else:
        # Two hash-table rows fit, so the hash join is always a candidate.
        # The 0-OM join exists for enclaves with no oblivious memory; with
        # any OM available the Opaque join dominates it (Section 7.2).
        costs = estimate_join_costs(n1, n2, oblivious_rows, held=in_enclave)
        algorithm = min(
            (a for a in (JoinAlgorithm.HASH, JoinAlgorithm.OPAQUE) if a in fits),
            key=lambda a: costs[a],
        )
    return JoinDecision(
        algorithm=algorithm,
        oblivious_memory_bytes=oblivious_bytes,
        oblivious_rows=oblivious_rows,
        in_enclave=in_enclave and algorithm is JoinAlgorithm.HASH,
    )
