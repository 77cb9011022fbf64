"""Order-preserving oblivious compaction (Goodrich-style shift network).

Selection fronts, join outputs, and GROUP BY scratches all end up as tables
whose real rows sit scattered among dummies; ObliDB's seed implementation
compacted them by *obliviously sorting* with a dummies-last key —
O(n log² n) block accesses just to slide rows left.  This module compacts
in O(n log n) with a data-independent trace and no oblivious-memory-resident
row buffer, preserving the relative order of the keepers (so selection
semantics survive).

Algorithm.  One batched marking scan computes, per slot, whether it holds a
keeper and how far left it must move: keeper ``i`` of rank ``r`` shifts by
``s = i - r`` — the number of discarded slots before it.  The shift is then
applied one binary digit at a time, least significant first: level ``j``
moves every keeper whose remaining shift has bit ``j`` set down by
``D = 2^j``.  A classic invariant argument shows two keepers can never
contend for a slot (their ranks and shifts would have to differ by a
negative multiple of ``2^{j+1}``), so each level is a stencil pass::

    new[i] = old[i + D]   if the element at i + D moves this level
             old[i]       if the element at i stays
             dummy        otherwise

executed as a client-planned single-region schedule — ``R i, R i+D, W i``
per step, in ascending ``i`` — through
:meth:`~repro.storage.flat.FlatStorage.exchange_schedule_framed` (one
gather, one keystream pass, one scatter per chunk).  Levels, indices, and
interleaving are pure functions of ``n``: nothing about which rows are
real ever reaches the trace.

Client state is one keeper flag and one shift counter per slot for the
duration of the pass — derived bookkeeping at the revision-ledger rate
("less than 1 % overhead", Section 3), not an operator row buffer, so like
the ledger it is not charged against the oblivious-memory budget.  That
makes compaction usable exactly where it matters: the low-memory regimes
where multi-pass Small selection and chunked oblivious sorts degrade.
"""

from __future__ import annotations

from typing import Callable, Sequence

from ..storage.flat import FlatStorage
from ..storage.rows import RowFilter, filter_reader, frame_dummy, is_dummy
from ..storage.schema import Row

__all__ = [
    "compaction_levels",
    "filter_copy",
    "materialize_prefix",
    "oblivious_compact",
]

#: Which rows a filter front keeps: a predicate (decoded through its
#: column reader) or a plain row callable (sees every column).
Keep = RowFilter | Callable[[Row], bool]


def compaction_levels(n: int) -> int:
    """Number of shift levels an ``n``-slot compaction runs: ceil(log2 n).

    A keeper's shift is at most ``n - 1``, so every bit below ``2^levels``
    must get a pass.  Public — the planner prices compaction with it.
    """
    levels = 0
    while (1 << levels) < n:
        levels += 1
    return levels


def _mark_keepers(table: FlatStorage, keep: Keep | None) -> list[bool]:
    """One batched marking scan: ``R 0 .. R n-1``, the per-block scan order.

    With ``keep=None`` every non-dummy row is a keeper (pure compaction);
    with a predicate the pass doubles as a filter front, decoding only the
    predicate's columns.
    """
    flags: list[bool] = []
    if keep is None:
        for _, frames in table.scan_framed_chunks():
            flags.extend(not is_dummy(framed) for framed in frames)
        return flags
    decode, matches = filter_reader(table.schema, keep)
    for _, frames in table.scan_framed_chunks():
        flags.extend(row is not None and matches(row) for row in decode(frames))
    return flags


def oblivious_compact(
    table: FlatStorage,
    keep: Keep | None = None,
    flags: Sequence[bool] | None = None,
) -> int:
    """Slide keepers to the front of ``table`` in place, preserving order.

    Returns the (enclave-private) keeper count; slots past it hold dummies.
    ``keep`` defaults to "every non-dummy row"; passing a predicate
    discards non-matching rows as well, turning the pass into a
    filter-compact front.  A caller whose preceding pass already knows the
    per-slot keeper flags (e.g. the :func:`filter_copy` front returns
    them) may pass ``flags`` to skip the marking scan — the choice is a
    public property of the call site, not of the data, so the trace stays
    a fixed function of ``n`` either way.

    Trace contract — a pure function of ``table.capacity`` (and the public
    presence of ``flags``): one marking scan ``R 0 .. R n-1`` (omitted when
    ``flags`` is given), then for each level ``D = 1, 2, 4, .. <n`` one
    schedule pass ``R i, R i+D, W i`` (the partner read omitted where
    ``i+D >= n``) for ``i = 0 .. n-1``.  Enforced against a per-block
    reference loop by the trace-equivalence tests; invariance across
    plaintexts and selectivities by the data-independence tests.
    """
    n = table.capacity
    if n == 0:
        return 0
    if flags is None:
        flags = _mark_keepers(table, keep)
    elif len(flags) != n:
        raise ValueError(f"{len(flags)} keeper flags for {n} slots")
    kept = sum(flags)

    # Remaining shift per current position (0 also for non-keepers).
    shifts = [0] * n
    occupied = [False] * n
    rank = 0
    for index, flag in enumerate(flags):
        if flag:
            shifts[index] = index - rank
            occupied[index] = True
            rank += 1

    dummy = frame_dummy(table.schema)
    distance = 1
    while distance < n:
        schedule: list[tuple[str, int]] = []
        for index in range(n):
            schedule.append(("R", index))
            if index + distance < n:
                schedule.append(("R", index + distance))
            schedule.append(("W", index))

        # Each write step consumes the 1-2 reads of its own step group;
        # the partial group carries across chunk boundaries.
        group: list[bytes] = []

        def level(
            steps: Sequence[tuple[str, int]],
            frames: list[bytes],
            distance: int = distance,
            group: list[bytes] = group,
        ) -> list[bytes]:
            out: list[bytes] = []
            cursor = 0
            for op, index in steps:
                if op == "R":
                    group.append(frames[cursor])
                    cursor += 1
                    continue
                partner = index + distance
                if partner < n and occupied[partner] and shifts[partner] & distance:
                    out.append(group[1])
                elif occupied[index] and not (shifts[index] & distance):
                    out.append(group[0])
                else:
                    out.append(dummy)
                group.clear()
            return out

        table.exchange_schedule_framed(schedule, level)

        # Apply the level to the client-side metadata.
        new_shifts = [0] * n
        new_occupied = [False] * n
        for index in range(n):
            if occupied[index] and not (shifts[index] & distance):
                new_shifts[index] = shifts[index]
                new_occupied[index] = True
            partner = index + distance
            if partner < n and occupied[partner] and shifts[partner] & distance:
                new_shifts[index] = shifts[partner] - distance
                new_occupied[index] = True
        shifts, occupied = new_shifts, new_occupied
        distance *= 2

    table._used = kept
    table._next_fast_insert = max(table._next_fast_insert, kept)
    return kept


def filter_copy(
    source: FlatStorage,
    target: FlatStorage,
    keep: Keep,
) -> list[bool]:
    """The filter front shared by compaction consumers: copy keepers' frames
    into ``target``'s first ``source.capacity`` slots, dummy the rest.

    One interleaved-exchange pass — ``R source[i], W target[i]`` per row,
    the per-block loop's exact two-region trace (the same front the sorted
    GROUP BY fallback and the compaction-based selects run).  Rows are
    tested through the predicate's column reader and keepers' framed bytes
    are copied through without a codec round trip; returns the
    (enclave-private) per-slot keeper flags, which a following
    :func:`oblivious_compact` can take to skip its marking scan.
    """
    dummy = frame_dummy(source.schema)
    decode, matches = filter_reader(source.schema, keep)
    flags: list[bool] = []

    def front(offset: int, frames: list[bytes]) -> list[bytes]:
        out = []
        for framed, row in zip(frames, decode(frames)):
            if row is not None and matches(row):
                flags.append(True)
                out.append(framed)
            else:
                flags.append(False)
                out.append(dummy)
        return out

    source.interleave_to(
        target, [(index, index) for index in range(source.capacity)], front
    )
    target._used = sum(flags)
    return flags


def materialize_prefix(
    table: FlatStorage, count: int, name: str | None = None
) -> FlatStorage:
    """Copy ``table``'s first ``count`` slots into a fresh tight table.

    The back half of a compaction front: after :func:`oblivious_compact`
    the keepers sit in a prefix, so a public-size prefix copy materialises
    the result at its planned capacity (``count`` comes from the planner or
    a public bound, never from the data).  Trace: the target's init pass,
    then ``R table[i], W target[i]`` for ``i = 0 .. count-1`` — one
    interleaved-exchange pass.
    """
    count = max(0, min(count, table.capacity))
    target = FlatStorage(table.enclave, table.schema, count, name=name)
    if count:
        prefix_used = 0
        last_real = -1

        def copy(offset: int, frames: list[bytes]) -> list[bytes]:
            nonlocal prefix_used, last_real
            for position, framed in enumerate(frames, offset):
                if not is_dummy(framed):
                    prefix_used += 1
                    last_real = position
            return frames

        table.interleave_to(
            target, [(index, index) for index in range(count)], copy
        )
        target._used = prefix_used
        target._next_fast_insert = last_real + 1
    return target
