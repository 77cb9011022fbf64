"""Untrusted memory: the OS-controlled block store outside the enclave.

Everything ObliDB persists — flat tables, ORAM trees, intermediate results —
lives here as :class:`~repro.enclave.crypto.SealedBlock` values organised in
named *regions* (contiguous arrays of block slots).  Every read and write is
recorded in the enclave's :class:`~repro.enclave.trace.AccessTrace` and cost
model, because this interface is exactly what a malicious OS observes.

The store offers no content-addressed operations: the enclave must touch
individual (region, index) slots, mirroring how an SGX application pages data
in and out through OS upcalls.  The batched primitives below — *range*
(contiguous runs), *gather/scatter* ``read_at``/``write_at`` (arbitrary
index sequences, e.g. heap-ordered ORAM tree paths), the *exchange*
family (read-modify-write and compare-exchange passes), and the
*cross-region interleaved exchange* (client-planned schedules mixing two
regions' reads and writes) — are purely a simulator optimisation: they
perform N slot accesses with one Python call, recording exactly the same N
per-slot events in the trace and cost model as N individual
``read``/``write`` calls would.  The adversary-visible sequence is
bit-identical, only the interpreter overhead is amortized; every
primitive's docstring states its exact trace contract (region, indices,
order, read/write interleaving), and
``tests/storage/test_datapath_equivalence.py`` enforces them (see
``docs/data-path.md``).
"""

from __future__ import annotations

from typing import Callable, Sequence

from .counters import CostModel
from .crypto import SealedBlock
from .errors import StorageError
from .trace import AccessTrace


class Region:
    """A contiguous array of sealed-block slots in untrusted memory."""

    def __init__(self, name: str, capacity: int) -> None:
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self.name = name
        self._slots: list[SealedBlock | None] = [None] * capacity

    @property
    def capacity(self) -> int:
        return len(self._slots)

    def resize(self, new_capacity: int) -> None:
        """Grow or shrink the region; new slots start empty."""
        if new_capacity < 0:
            raise ValueError("capacity must be non-negative")
        if new_capacity >= len(self._slots):
            self._slots.extend([None] * (new_capacity - len(self._slots)))
        else:
            del self._slots[new_capacity:]

    def stored_bytes(self) -> int:
        """Total bytes currently stored (size of the encrypted image)."""
        return sum(block.size() for block in self._slots if block is not None)


class UntrustedMemory:
    """Named regions of sealed blocks, with full access-pattern recording.

    The same instance is shared by every table and ORAM of one database so a
    single trace captures the complete observable behaviour of a query.
    """

    def __init__(self, trace: AccessTrace, cost: CostModel) -> None:
        self._trace = trace
        self._cost = cost
        self._regions: dict[str, Region] = {}

    def allocate_region(self, name: str, capacity: int) -> Region:
        """Create a new region; allocation itself leaks only name and size."""
        if name in self._regions:
            raise StorageError(f"region {name!r} already exists")
        region = Region(name, capacity)
        self._regions[name] = region
        return region

    def free_region(self, name: str) -> None:
        """Release a region (e.g. an intermediate table after a query)."""
        if name not in self._regions:
            raise StorageError(f"region {name!r} does not exist")
        del self._regions[name]

    def has_region(self, name: str) -> bool:
        return name in self._regions

    def region(self, name: str) -> Region:
        try:
            return self._regions[name]
        except KeyError:
            raise StorageError(f"region {name!r} does not exist") from None

    def region_names(self) -> list[str]:
        return list(self._regions)

    def read(self, region_name: str, index: int) -> SealedBlock | None:
        """Read one slot; observable to the adversary and counted."""
        region = self.region(region_name)
        if not 0 <= index < region.capacity:
            raise StorageError(
                f"read out of bounds: {region_name}[{index}] "
                f"(capacity {region.capacity})"
            )
        self._trace.record("R", region_name, index)
        self._cost.record_read()
        return region._slots[index]

    def write(self, region_name: str, index: int, block: SealedBlock | None) -> None:
        """Write one slot; observable to the adversary and counted."""
        region = self.region(region_name)
        if not 0 <= index < region.capacity:
            raise StorageError(
                f"write out of bounds: {region_name}[{index}] "
                f"(capacity {region.capacity})"
            )
        self._trace.record("W", region_name, index)
        self._cost.record_write()
        region._slots[index] = block

    # ------------------------------------------------------------------
    # Range primitives: N accesses, one call, identical observable trace
    # ------------------------------------------------------------------
    def _check_range(self, region: Region, start: int, count: int, what: str) -> None:
        if count < 0:
            raise StorageError(f"{what} with negative count {count}")
        if not (0 <= start and start + count <= region.capacity):
            raise StorageError(
                f"{what} out of bounds: {region.name}[{start}:{start + count}] "
                f"(capacity {region.capacity})"
            )

    def read_range(
        self, region_name: str, start: int, count: int
    ) -> list[SealedBlock | None]:
        """Read ``count`` adjacent slots of one region, ascending.

        Trace contract: ``count`` individual reads of ``region_name``, at
        indices ``start .. start+count-1`` in that order, no interleaved
        writes — bit-identical to the per-slot ``read`` loop.
        """
        region = self.region(region_name)
        self._check_range(region, start, count, "range read")
        self._trace.record_range("R", region_name, start, count)
        self._cost.record_read(count)
        return region._slots[start : start + count]

    def write_range(
        self, region_name: str, start: int, blocks: Sequence[SealedBlock | None]
    ) -> None:
        """Write ``blocks`` to adjacent slots of one region, ascending.

        Trace contract: ``len(blocks)`` individual writes of
        ``region_name``, at indices ``start .. start+len(blocks)-1`` in
        that order, no interleaved reads — bit-identical to the per-slot
        ``write`` loop.
        """
        region = self.region(region_name)
        count = len(blocks)
        self._check_range(region, start, count, "range write")
        self._trace.record_range("W", region_name, start, count)
        self._cost.record_write(count)
        region._slots[start : start + count] = list(blocks)

    # ------------------------------------------------------------------
    # Gather/scatter primitives: N accesses at arbitrary indices, one call
    # ------------------------------------------------------------------
    def _check_indices(self, region: Region, indices: Sequence[int], what: str) -> None:
        capacity = region.capacity
        if not indices or (0 <= min(indices) and max(indices) < capacity):
            return
        for index in indices:  # name the first slot out of bounds
            if not 0 <= index < capacity:
                raise StorageError(
                    f"{what} out of bounds: {region.name}[{index}] "
                    f"(capacity {capacity})"
                )

    def read_at(
        self, region_name: str, indices: Sequence[int]
    ) -> list[SealedBlock | None]:
        """Read the slots named by ``indices``, in the given order.

        The gather primitive for non-contiguous slot sets (ORAM tree paths
        are heap-ordered: a root→leaf path reads indices like ``0, 2, 5``).
        Observable as ``len(indices)`` individual reads in exactly that
        order — bit-identical to the per-slot ``read`` loop.
        """
        region = self.region(region_name)
        self._check_indices(region, indices, "gather read")
        self._trace.record_at("R", region_name, indices)
        self._cost.record_read(len(indices))
        slots = region._slots
        return [slots[index] for index in indices]

    def write_at(
        self,
        region_name: str,
        indices: Sequence[int],
        blocks: Sequence[SealedBlock | None],
    ) -> None:
        """Write ``blocks`` to the slots named by ``indices``, in order.

        The scatter primitive paired with :meth:`read_at`; ORAM path
        write-back scatters leaf→root, i.e. the reversed read order.
        Observable as ``len(indices)`` individual writes in that order.
        """
        region = self.region(region_name)
        if len(blocks) != len(indices):
            raise StorageError(
                f"scatter write of {len(blocks)} blocks to {len(indices)} slots"
            )
        self._check_indices(region, indices, "scatter write")
        self._trace.record_at("W", region_name, indices)
        self._cost.record_write(len(indices))
        slots = region._slots
        for index, block in zip(indices, blocks):
            slots[index] = block

    def exchange_range(
        self,
        region_name: str,
        start: int,
        count: int,
        compute: Callable[[list[SealedBlock | None]], Sequence[SealedBlock | None]],
    ) -> None:
        """One read-modify-write pass over ``[start, start+count)``.

        ``compute`` maps the current blocks to their replacements (enclave-side
        work: decrypt, transform, re-encrypt).  Observable as ``count``
        interleaved (read, write) pairs — ``R i, W i`` per slot in order —
        exactly the trace of a per-slot read/write loop.  If ``compute``
        raises, no access is recorded and no slot is modified (the per-slot
        loop would have recorded a prefix; batches fail atomically).
        """
        region = self.region(region_name)
        self._check_range(region, start, count, "range exchange")
        replacements = list(compute(region._slots[start : start + count]))
        if len(replacements) != count:
            raise StorageError(
                f"range exchange computed {len(replacements)} blocks for "
                f"{count} slots"
            )
        self._trace.record_rw_range(region_name, start, count)
        self._cost.record_read(count)
        self._cost.record_write(count)
        region._slots[start : start + count] = replacements

    def exchange_pairs(
        self,
        region_name: str,
        start: int,
        half: int,
        compute: Callable[
            [list[SealedBlock | None], list[SealedBlock | None]],
            tuple[Sequence[SealedBlock | None], Sequence[SealedBlock | None]],
        ],
    ) -> None:
        """One compare-exchange pass at distance ``half`` over ``[start, start+2*half)``.

        ``compute`` receives the low and high blocks (slots ``i`` and
        ``i+half``) and returns their replacements.  Observable as, for each
        ``i`` in ``[start, start+half)``: ``R i, R i+half, W i, W i+half`` —
        the per-pair trace of a bitonic merge level.  Fails atomically like
        :meth:`exchange_range`.
        """
        region = self.region(region_name)
        self._check_range(region, start, 2 * half, "pair exchange")
        mid = start + half
        lows = region._slots[start:mid]
        highs = region._slots[mid : mid + half]
        new_lows, new_highs = compute(lows, highs)
        if len(new_lows) != half or len(new_highs) != half:
            raise StorageError("pair exchange computed a wrong number of blocks")
        self._trace.record_pair_exchanges(region_name, start, half)
        self._cost.record_read(2 * half)
        self._cost.record_write(2 * half)
        region._slots[start:mid] = list(new_lows)
        region._slots[mid : mid + half] = list(new_highs)

    # ------------------------------------------------------------------
    # Cross-region interleaved exchange: a client-planned schedule of
    # (region, index, read|write) steps executed as one round-trip
    # ------------------------------------------------------------------
    def exchange_interleaved(
        self,
        schedule: Sequence[tuple[str, str, int]],
        compute: Callable[[list[SealedBlock | None]], Sequence[SealedBlock | None]],
    ) -> None:
        """Execute a schedule of ``(op, region, index)`` steps in one call.

        ``op`` is ``'R'`` or ``'W'``.  The read steps are gathered (in
        schedule order) and passed to ``compute``, which returns one
        replacement block per write step (in schedule order); the
        replacements are then scattered.

        Trace contract: observable as ``len(schedule)`` individual accesses —
        the exact ops, regions, indices, and interleaving of the schedule, in
        schedule order — bit-identical to the per-row loop that alternates
        ``read``/``write`` calls.  This is the primitive that lets operator
        passes interleaving two regions (hash-join probe: R T2 / W output;
        sort-merge union and merge: R source / W scratch) batch their crypto
        and bookkeeping without the adversary seeing any difference.

        Gathering reads up front is only sound when no read depends on an
        earlier write of the same schedule, so a schedule that reads a slot
        it has already written is rejected.  If ``compute`` raises, no access
        is recorded and no slot is modified (the per-row loop would have
        recorded a prefix; batches fail atomically, like
        :meth:`exchange_range`).
        """
        reads: list[tuple[Region, int]] = []
        writes: list[tuple[Region, int]] = []
        written: set[tuple[str, int]] = set()
        for op, region_name, index in schedule:
            region = self.region(region_name)
            if not 0 <= index < region.capacity:
                raise StorageError(
                    f"interleaved exchange out of bounds: {region_name}[{index}] "
                    f"(capacity {region.capacity})"
                )
            if op == "R":
                if (region_name, index) in written:
                    raise StorageError(
                        f"interleaved exchange reads {region_name}[{index}] "
                        "after writing it; gather-then-scatter would return "
                        "the stale block"
                    )
                reads.append((region, index))
            elif op == "W":
                written.add((region_name, index))
                writes.append((region, index))
            else:
                raise StorageError(f"unknown interleaved exchange op {op!r}")
        gathered = [region._slots[index] for region, index in reads]
        replacements = list(compute(gathered))
        if len(replacements) != len(writes):
            raise StorageError(
                f"interleaved exchange computed {len(replacements)} blocks "
                f"for {len(writes)} write steps"
            )
        self._trace.record_interleaved(schedule)
        self._cost.record_read(len(reads))
        self._cost.record_write(len(writes))
        for (region, index), block in zip(writes, replacements):
            region._slots[index] = block

    def peek(self, region_name: str, index: int) -> SealedBlock | None:
        """Adversary-side inspection: NOT traced, NOT counted.

        Used only by tests that play the role of the malicious OS (e.g. to
        tamper with a block and check that the enclave detects it).  Library
        code must never call this.
        """
        return self.region(region_name)._slots[index]

    def tamper(self, region_name: str, index: int, block: SealedBlock | None) -> None:
        """Adversary-side mutation: NOT traced, NOT counted (tests only)."""
        self.region(region_name)._slots[index] = block

    def total_stored_bytes(self) -> int:
        """Bytes of sealed data across all regions (the paper's space column)."""
        return sum(region.stored_bytes() for region in self._regions.values())
