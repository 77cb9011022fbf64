"""Sharded tables: region partitioning and composable per-shard traces.

The subsystem splits a table into independent untrusted-memory regions
(:mod:`repro.shard.partition`), runs each pipeline shard by shard in the
enclave, and composes the per-shard access recordings back into one
canonical trace (:mod:`repro.shard.trace`).  The per-shard cost models are
what a modeled study of the paper's parallelism argument reads: the
critical path of a W-shard pipeline is the serial remainder plus the
slowest shard (:func:`critical_path_ms`).
"""

from .partition import (
    ShardedTable,
    ShardSpec,
    encode_key,
    partition_pair,
    partition_rows,
    sharded_hash_join,
)
from .trace import ShardTraceRecorder, compose, critical_path_ms

__all__ = [
    "ShardSpec",
    "ShardTraceRecorder",
    "ShardedTable",
    "compose",
    "critical_path_ms",
    "encode_key",
    "partition_pair",
    "partition_rows",
    "sharded_hash_join",
]
