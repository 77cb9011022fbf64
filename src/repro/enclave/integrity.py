"""Integrity protection: revision ledger and block identity binding.

Section 3 of the paper: every block stored outside the enclave is MACed and
carries (a) a record of which row(s) it contains and (b) a revision number,
a copy of which the enclave retains.  Together with the MAC this defeats the
four tampering strategies available to a malicious OS:

* *modification* — breaks the MAC;
* *shuffling / relocation* — the block's bound (region, index) no longer
  matches where it was read from;
* *addition / removal* — the enclave's ledger knows which slots hold data;
* *rollback* — an old (validly MACed) block carries a stale revision number.

The ledger is enclave-private client state.  Like the paper we do not charge
it against the oblivious-memory budget: it adds "less than 1 % overhead" and
sits alongside code/metadata pages, not the operator working sets that the
budget models.

Revisions are stored per region (one dict of index -> revision each), which
lets the ``*_range`` methods fetch/commit a contiguous run of slots with one
region lookup and makes freeing a region O(1) — the batch APIs the sealed
data path uses to amortize per-block bookkeeping.  The ``*_at`` variants do
the same for *arbitrary* index sequences: ORAM tree paths are heap-ordered
and non-contiguous, so the batched Path/Ring ORAM pipeline fetches a whole
path's AADs (and stages the write-back revisions) with one call each.
ORAM regions are revision-bound through this ledger too, closing the
bucket-replay (rollback) channel the static position-only AADs left open.
"""

from __future__ import annotations

import struct
from typing import Sequence

from .errors import RollbackError, StorageError

_AAD = struct.Struct("<IQ")  # row index within region, revision number


class RevisionLedger:
    """Enclave-side map of (region, index) -> last written revision."""

    def __init__(self) -> None:
        self._regions: dict[str, dict[int, int]] = {}
        self._aad_prefix: dict[str, bytes] = {}

    def _region(self, region: str) -> dict[int, int]:
        revisions = self._regions.get(region)
        if revisions is None:
            revisions = self._regions[region] = {}
        return revisions

    def next_revision(self, region: str, index: int) -> int:
        """The revision number to embed in the block about to be written."""
        return self._region(region).get(index, 0) + 1

    def commit(self, region: str, index: int, revision: int) -> None:
        """Record that ``revision`` is now the latest for this slot."""
        self._region(region)[index] = revision

    def current(self, region: str, index: int) -> int:
        """Latest committed revision (0 if the slot was never written)."""
        return self._region(region).get(index, 0)

    def verify(self, region: str, index: int, revision: int) -> None:
        """Check a read block's revision; raises :class:`RollbackError`.

        A *stale* revision means the OS served an old copy (rollback); a
        *newer* one should be impossible and indicates ledger corruption —
        both are integrity failures.
        """
        expected = self.current(region, index)
        if revision != expected:
            raise RollbackError(
                f"revision mismatch at {region}[{index}]: block says "
                f"{revision}, ledger says {expected}"
            )

    def forget_region(self, region: str) -> None:
        """Drop ledger entries when a region is freed."""
        self._regions.pop(region, None)
        self._aad_prefix.pop(region, None)

    # ------------------------------------------------------------------
    # Range operations over contiguous slot runs (batch data path)
    # ------------------------------------------------------------------
    def commit_range(self, region: str, start: int, revisions: list[int]) -> None:
        """Commit a run of revisions for slots ``[start, start+len))``."""
        store = self._region(region)
        for index, revision in enumerate(revisions, start):
            store[index] = revision

    def open_range(self, region: str, start: int, count: int) -> list[bytes]:
        """Fused fetch for a read pass: current AADs for ``[start, start+count)``.

        One loop producing what per-slot ``current`` + ``associated_data``
        calls would, sharing the region lookup and packed prefix.
        """
        prefix = self._prefix(region)
        pack = _AAD.pack
        get = self._region(region).get
        return [
            prefix + pack(index, get(index, 0))
            for index in range(start, start + count)
        ]

    def stage_range(
        self, region: str, start: int, count: int
    ) -> tuple[list[int], list[bytes]]:
        """Fused fetch for a write pass: next revisions and their AADs.

        Nothing is committed; call :meth:`commit_range` with the returned
        revisions once the blocks are stored.
        """
        prefix = self._prefix(region)
        pack = _AAD.pack
        get = self._region(region).get
        revisions = []
        aads = []
        for index in range(start, start + count):
            revision = get(index, 0) + 1
            revisions.append(revision)
            aads.append(prefix + pack(index, revision))
        return revisions, aads

    def advance_range(
        self, region: str, start: int, count: int
    ) -> tuple[list[bytes], list[bytes], list[int]]:
        """Fused fetch for a read-modify-write pass over a contiguous run.

        Returns (current AADs to open with, next AADs to re-seal with, next
        revisions to commit once the blocks are stored).  Nothing is
        committed here, so a failed open leaves the ledger untouched.
        """
        prefix = self._prefix(region)
        pack = _AAD.pack
        get = self._region(region).get
        current_aads = []
        next_aads = []
        next_revisions = []
        for index in range(start, start + count):
            revision = get(index, 0)
            current_aads.append(prefix + pack(index, revision))
            revision += 1
            next_aads.append(prefix + pack(index, revision))
            next_revisions.append(revision)
        return current_aads, next_aads, next_revisions

    # ------------------------------------------------------------------
    # Gather/scatter operations over arbitrary slot sequences (ORAM paths)
    # ------------------------------------------------------------------
    def open_at(self, region: str, indices: Sequence[int]) -> list[bytes]:
        """Fused fetch for a gather read: current AADs for ``indices``.

        The non-contiguous analogue of :meth:`open_range` — ORAM tree paths
        are heap-ordered, so a root→leaf read touches indices like
        ``0, 2, 5, 12``.  AADs come back in the given index order.
        """
        prefix = self._prefix(region)
        pack = _AAD.pack
        get = self._region(region).get
        return [prefix + pack(index, get(index, 0)) for index in indices]

    def stage_at(
        self, region: str, indices: Sequence[int]
    ) -> tuple[list[int], list[bytes]]:
        """Fused fetch for a scatter write: next revisions and AADs.

        Nothing is committed; call :meth:`commit_at` with the returned
        revisions once the blocks are stored (a failed seal/write must leave
        the ledger untouched, exactly like the scalar path).

        Indices must be unique: staging one slot twice in a batch would
        hand the same (index, revision) binding to two distinct
        ciphertexts, letting the superseded one keep verifying — exactly
        the replay hole revision binding exists to close.
        """
        if len(set(indices)) != len(indices):
            raise StorageError("stage_at indices must be unique")
        prefix = self._prefix(region)
        pack = _AAD.pack
        get = self._region(region).get
        revisions = []
        aads = []
        for index in indices:
            revision = get(index, 0) + 1
            revisions.append(revision)
            aads.append(prefix + pack(index, revision))
        return revisions, aads

    def commit_at(
        self, region: str, indices: Sequence[int], revisions: Sequence[int]
    ) -> None:
        """Commit staged revisions for the slots named by ``indices``."""
        self._region(region).update(zip(indices, revisions))

    # ------------------------------------------------------------------
    # Step operations over (region, index) pairs spanning several regions
    # (the cross-region interleaved exchange: R source / W target passes)
    # ------------------------------------------------------------------
    def open_steps(self, steps: Sequence[tuple[str, int]]) -> list[bytes]:
        """Fused fetch for a cross-region gather: current AADs per step.

        The multi-region analogue of :meth:`open_at` — one batch can mix
        slots of several regions (an interleaved exchange reads one table
        while writing another, and nothing stops a schedule from reading
        two).  AADs come back in step order.
        """
        pack = _AAD.pack
        prefixes: dict[str, bytes] = {}
        getters: dict = {}
        aads = []
        for region, index in steps:
            prefix = prefixes.get(region)
            if prefix is None:
                prefix = prefixes[region] = self._prefix(region)
                getters[region] = self._region(region).get
            aads.append(prefix + pack(index, getters[region](index, 0)))
        return aads

    def stage_steps(
        self, steps: Sequence[tuple[str, int]]
    ) -> tuple[list[int], list[bytes]]:
        """Fused fetch for a cross-region scatter: next revisions and AADs.

        Nothing is committed; call :meth:`commit_steps` with the returned
        revisions once the blocks are stored.  Steps must be unique — the
        same (region, index) staged twice in one batch would bind two
        distinct ciphertexts to one revision, reopening the replay hole
        (see :meth:`stage_at`).
        """
        if len(set(steps)) != len(steps):
            raise StorageError("stage_steps (region, index) pairs must be unique")
        pack = _AAD.pack
        prefixes: dict[str, bytes] = {}
        getters: dict = {}
        revisions = []
        aads = []
        for region, index in steps:
            prefix = prefixes.get(region)
            if prefix is None:
                prefix = prefixes[region] = self._prefix(region)
                getters[region] = self._region(region).get
            revision = getters[region](index, 0) + 1
            revisions.append(revision)
            aads.append(prefix + pack(index, revision))
        return revisions, aads

    def commit_steps(
        self, steps: Sequence[tuple[str, int]], revisions: Sequence[int]
    ) -> None:
        """Commit staged revisions for cross-region (region, index) steps."""
        stores: dict[str, dict[int, int]] = {}
        for (region, index), revision in zip(steps, revisions):
            store = stores.get(region)
            if store is None:
                store = stores[region] = self._region(region)
            store[index] = revision

    def _prefix(self, region: str) -> bytes:
        prefix = self._aad_prefix.get(region)
        if prefix is None:
            prefix = self._aad_prefix[region] = region.encode() + b"\x00"
        return prefix

    def associated_data(self, region: str, index: int, revision: int) -> bytes:
        """The authenticated header binding identity and revision.

        The region name is included so a validly MACed block cannot be
        transplanted between tables; the index defeats intra-table shuffles.
        """
        return self._prefix(region) + _AAD.pack(index, revision)
