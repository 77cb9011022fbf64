"""Abstract ORAM interface.

The paper uses ORAM "as a black box" (Section 3.2): storage methods and
operators only need read/write on logical block ids, with the guarantee that
any two access sequences of the same length are indistinguishable to an
observer of untrusted memory.  Implementations in this package: the
non-recursive :class:`~repro.oram.path_oram.PathORAM` (default, position map
in oblivious memory) and the :class:`~repro.oram.recursive.RecursivePathORAM`
(position map in a second ORAM, Appendix B).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import Iterable


#: Blocks sealed per batched init call: large enough to amortize per-call
#: overhead, small enough to bound enclave-side residency while a region is
#: initialised (mirrors flat storage's chunking discipline).
INIT_CHUNK_BLOCKS = 1024


def greedy_eviction_placements(
    stash: dict[int, tuple[int, bytes]],
    leaf: int,
    levels: int,
    per_level: int,
) -> tuple[list[list[tuple[int, tuple[int, bytes]]]], dict[int, tuple[int, bytes]]]:
    """Plan one greedy path eviction in a single pass over the stash.

    A stash block assigned to leaf ``l`` may live in bucket ``path[d]`` iff
    ``d`` is at most the deepest depth the root→``l`` path shares with the
    access path (to ``leaf``, in a complete tree of ``levels`` levels) —
    computed per block from the XOR of the two leaf numbers, whose bit
    length is the number of levels below their deepest common ancestor.
    Each level then takes the first ``per_level`` eligible blocks in stash
    order, deepest level first with overflow cascading toward the root:
    exactly the placements of the per-level O(stash×levels) rescan, which
    both Path ORAM and Ring ORAM evictions used before batching (and which
    the reference implementations in the trace-equivalence tests still
    use).

    One bucketing pass places every block at its deepest eligible depth,
    in stash order.  When no depth holds more than ``per_level`` blocks that
    is the answer and nothing is carried; otherwise the overflow carries
    toward the root, merged into each shallower level in stash order.

    Returns (placements indexed by depth, each a list of stash items in
    stash order; the remaining stash as a dict preserving stash order).
    """
    top = levels - 1
    placements: list[list[tuple[int, tuple[int, bytes]]]] = [[] for _ in range(levels)]
    for item in stash.items():
        placements[top - (item[1][0] ^ leaf).bit_length()].append(item)
    if max(map(len, placements)) <= per_level:
        return placements, {}
    rank = {block_id: order for order, block_id in enumerate(stash)}
    carry: list[tuple[int, tuple[int, bytes]]] = []
    for depth in range(top, -1, -1):
        pool = placements[depth]
        if carry:
            pool = sorted(carry + pool, key=lambda item: rank[item[0]])
        placements[depth] = pool[:per_level]
        carry = pool[per_level:]
    return placements, dict(carry)


class ORAM(ABC):
    """Oblivious block store: fixed capacity of fixed-size blocks."""

    @property
    @abstractmethod
    def capacity(self) -> int:
        """Number of logical blocks this ORAM can hold."""

    @property
    @abstractmethod
    def block_size(self) -> int:
        """Size in bytes of each logical block's payload."""

    @abstractmethod
    def read(self, block_id: int) -> bytes | None:
        """Read logical block ``block_id``; ``None`` if never written."""

    @abstractmethod
    def write(self, block_id: int, data: bytes) -> None:
        """Write ``data`` (at most ``block_size`` bytes) to ``block_id``."""

    @abstractmethod
    def dummy_access(self) -> None:
        """Perform one access indistinguishable from a real read/write.

        Used to pad B+ tree operations to their worst-case access count
        (Section 3.2).
        """

    @abstractmethod
    def free(self) -> None:
        """Release untrusted regions and oblivious-memory reservations."""

    def dummy_accesses(self, count: int) -> None:
        """Perform ``count`` dummy accesses (a padding burst).

        Each one is a full :meth:`dummy_access` — batching here amortizes
        only the caller's per-access bookkeeping (the B+ tree pads in bursts
        computed once per operation); the observable per-access pattern is
        unchanged.
        """
        for _ in range(count):
            self.dummy_access()

    def load_blocks(self, blocks: Iterable[tuple[int, bytes]]) -> None:
        """Store ``(block id, payload)`` pairs for a caller that keeps
        nothing else in this store (an initial load).

        Afterwards every listed block reads back its payload; what any
        *other* block reads is unspecified, which leaves a construction
        free to rebuild its untrusted structure in one pass
        (:meth:`PathORAM.load_blocks
        <repro.oram.path_oram.PathORAM.load_blocks>`).  The default is one
        ordinary :meth:`write` per block: oblivious because every access
        is, and its length is the public block count.
        """
        for block_id, data in blocks:
            self.write(block_id, data)

    def load_accesses(self, count: int) -> float:
        """What :meth:`load_blocks` of ``count`` blocks costs, in units of
        one ordinary access's block transfers.

        A closed form in public sizes, so a caller may choose between a
        load and per-block accesses without the choice leaking anything.
        """
        return count

    @property
    def accesses_per_operation(self) -> int:
        """Counted ORAM accesses per logical read/write/dummy (1 for the
        direct constructions; 2 for the recursive one, whose every logical
        operation touches the position-map ORAM too).  Padding budgets in
        higher layers scale by this factor."""
        return 1

    def check_block_id(self, block_id: int) -> None:
        """Validate a logical block id against capacity."""
        if not 0 <= block_id < self.capacity:
            raise IndexError(
                f"block id {block_id} out of range (capacity {self.capacity})"
            )
