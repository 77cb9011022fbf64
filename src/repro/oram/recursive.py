"""Recursive Path ORAM (Appendix B).

The non-recursive Path ORAM keeps an 8-byte position-map entry per logical
block in oblivious memory.  When that is too expensive, Path ORAM stores the
position map itself inside a second, smaller ORAM: each block of the inner
ORAM packs ``fanout`` leaf pointers, shrinking the oblivious-memory footprint
by that factor.  The paper notes one level of recursion suffices in practice
(a 10 MB map supports ~1.1 M records directly and ~1.2 T with one level) at
roughly 2× performance overhead — each data access now needs a map access
first.  We implement exactly that single level.

Both the data ORAM and the map ORAM are plain :class:`PathORAM` instances
(each with its own treetop, by the same rule or the same ``treetop_levels``),
so every logical operation here rides the batched path pipeline twice: the
map update is a single read-modify-write ORAM access (one gather + one
``open_many`` + one ``seal_many`` + one scatter), and the data access is
another.  Nothing in this module touches buckets individually.
"""

from __future__ import annotations

import random
import struct

from ..enclave.enclave import Enclave
from .base import ORAM
from .path_oram import PathORAM

_LEAF = struct.Struct("<i")  # one packed leaf pointer


class RecursivePathORAM(ORAM):
    """Path ORAM whose position map lives in a second Path ORAM.

    Observable behaviour per logical access: one access to the (small) map
    ORAM followed by one access to the data ORAM — a fixed pattern that
    leaks nothing beyond the access count, preserving obliviousness.
    """

    def __init__(
        self,
        enclave: Enclave,
        capacity: int,
        block_size: int,
        fanout: int = 16,
        rng: random.Random | None = None,
        treetop_levels: int | None = None,
    ) -> None:
        if fanout < 2:
            raise ValueError("fanout must be at least 2")
        self._enclave = enclave
        self._capacity = capacity
        self._fanout = fanout
        self._rng = rng if rng is not None else random.Random()

        # Data ORAM: position map NOT charged to oblivious memory because we
        # do not keep it there; we track leaves via the inner map ORAM.
        self._data = PathORAM(
            enclave,
            capacity,
            block_size,
            rng=self._rng,
            charge_position_map=False,
            treetop_levels=treetop_levels,
        )
        # The data ORAM drew an initial position map on construction; we
        # mirror those leaves into the map ORAM below so both agree.
        map_capacity = (capacity + fanout - 1) // fanout
        self._map = PathORAM(
            enclave,
            map_capacity,
            block_size=fanout * _LEAF.size,
            rng=self._rng,
            charge_position_map=True,
            treetop_levels=treetop_levels,
        )
        for map_block in range(map_capacity):
            start = map_block * fanout
            leaves = self._data._position[start : start + fanout]
            leaves += [0] * (fanout - len(leaves))
            self._map.write(map_block, b"".join(_LEAF.pack(leaf) for leaf in leaves))
        self._freed = False

    @property
    def capacity(self) -> int:
        return self._capacity

    @property
    def block_size(self) -> int:
        return self._data.block_size

    @property
    def data_region_name(self) -> str:
        return self._data.region_name

    def _sync_map_entry(self, block_id: int) -> None:
        """Mirror the data ORAM's (fresh) leaf for ``block_id`` into the map.

        One map-ORAM access per data access, matching the ~2× overhead the
        paper reports for a single recursion level.
        """
        map_block = block_id // self._fanout
        new_leaf = self._data._position[block_id]

        def mutate(packed: bytes | None) -> bytes:
            packed = packed or b"\x00" * (self._fanout * _LEAF.size)
            leaves = [
                _LEAF.unpack_from(packed, i * _LEAF.size)[0]
                for i in range(self._fanout)
            ]
            leaves[block_id % self._fanout] = new_leaf
            return b"".join(_LEAF.pack(leaf) for leaf in leaves)

        self._map.update(map_block, mutate)

    def read(self, block_id: int) -> bytes | None:
        self.check_block_id(block_id)
        result = self._data.read(block_id)
        self._sync_map_entry(block_id)
        return result

    def write(self, block_id: int, data: bytes) -> None:
        self.check_block_id(block_id)
        self._data.write(block_id, data)
        self._sync_map_entry(block_id)

    def dummy_access(self) -> None:
        """A dummy access touches both ORAMs, like a real access."""
        self._data.dummy_access()
        self._map.dummy_access()

    @property
    def accesses_per_operation(self) -> int:
        return 2

    def free(self) -> None:
        if self._freed:
            return
        self._data.free()
        self._map.free()
        self._freed = True

    def oblivious_memory_bytes(self) -> int:
        """Oblivious memory held by client state: the map ORAM's position
        map, and both trees' stashes and treetops."""
        return self._map.oblivious_memory_bytes() + self._data.oblivious_memory_bytes()
