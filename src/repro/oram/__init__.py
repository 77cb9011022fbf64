"""Oblivious RAM substrate: Path ORAM, recursive variant, block allocator."""

from .allocator import BlockAllocator
from .base import ORAM
from .path_oram import (
    DEFAULT_BUCKET_SIZE,
    DEFAULT_STASH_LIMIT,
    POSITION_MAP_BYTES_PER_BLOCK,
    PathORAM,
    paper_path_oram,
)
from .recursive import RecursivePathORAM
from .ring_oram import RingORAM

__all__ = [
    "BlockAllocator",
    "DEFAULT_BUCKET_SIZE",
    "DEFAULT_STASH_LIMIT",
    "ORAM",
    "POSITION_MAP_BYTES_PER_BLOCK",
    "PathORAM",
    "RecursivePathORAM",
    "RingORAM",
    "paper_path_oram",
]
