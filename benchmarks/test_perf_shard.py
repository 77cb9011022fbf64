"""Modeled scaling of the sharded tables: a study of the paper's
parallelism argument, not a parallel runtime.

Two composites, each recording its own section of ``BENCH_shard.json`` at
the repository root under ``BENCH_RECORD=1`` (``BENCH_SMOKE=1`` shrinks
workloads):

* **composite** — partitions one table into W shard regions and runs the
  scan + shuffle + compact composite at W = 1, 2, 4(, 8) shards.
* **sharded_join** — the sharded hash join over a co-partitioned pair at
  W = 1, 2, 4 shards.

Everything runs in one process, shard after shard, so the comparison basis
is **modeled time**: each shard's work is recorded into its own
:class:`ShardTraceRecorder` cost model, and the critical path a W-way
parallel run would have is ``serial_part + max(per-shard modeled)``, where
``serial_part`` is whatever the composing parent did outside the shard
regions.  Speedup is sequential modeled time (= the sum) over that
critical path.  Wall seconds are recorded alongside; they measure the
sequential run and claim nothing about parallelism.
"""

from __future__ import annotations

import os
import time

from repro.enclave import Enclave
from repro.shard import (
    ShardSpec,
    ShardedTable,
    critical_path_ms,
    sharded_hash_join,
)
from repro.storage import Schema
from repro.storage.schema import float_column, int_column, str_column

from conftest import BENCH_SMOKE, print_table, record_bench

ROOT_KEY = b"\x5c" * 32

#: ~0.5 KB per framed row (the paper's block-size regime).
SCHEMA = Schema(
    [
        int_column("id"),
        str_column("name", 120),
        str_column("address", 120),
        str_column("notes", 120),
        str_column("payload", 120),
        float_column("score"),
    ]
)

RIGHT_SCHEMA = Schema(
    [
        int_column("rid"),
        str_column("rpayload", 120),
        float_column("rscore"),
    ]
)

N = 256 if BENCH_SMOKE else 2048
SHARD_COUNTS = (1, 2, 4) if BENCH_SMOKE else (1, 2, 4, 8)
JOIN_SHARDS = (1, 2, 4)


def _row(i: int) -> tuple:
    return (
        i,
        f"user{i:05d}",
        f"{i} enclave road",
        "x" * 100,
        "y" * 100,
        float(i) * 0.5,
    )


def _right_row(i: int) -> tuple:
    return (i, "z" * 100, float(i) * 0.25)


def _enclave() -> Enclave:
    return Enclave(
        oblivious_memory_bytes=1 << 26,
        cipher="authenticated",
        key=ROOT_KEY,
        keep_trace_events=False,
    )


def _measure_op(enclave, table, fn):
    """Run one sharded op; return (sequential_ms, parallel_ms).

    Sequential is the op's full modeled cost (what one enclave thread pays
    in series).  Parallel is the critical path: the parent's serial
    accesses plus the slowest shard's recorded cost.
    """
    snapshot = enclave.cost.snapshot()
    fn()
    total_ms = enclave.cost.delta_since(snapshot).modeled_time_ms()
    return total_ms, critical_path_ms(total_ms, table.last_recorders)


def _composite(shards: int):
    """Scan + shuffle + compact at ``shards`` shards; returns metrics."""
    enclave = _enclave()
    rows = [_row(i) for i in range(N)]
    table = ShardedTable(
        enclave, "bench", SCHEMA, ShardSpec("hash", shards, "id"), rows
    )
    ops = {}
    wall_start = time.perf_counter()
    ops["scan"] = _measure_op(enclave, table, table.scan_rows)
    ops["shuffle"] = _measure_op(enclave, table, table.shuffle)
    ops["compact"] = _measure_op(enclave, table, table.compact)
    wall_s = time.perf_counter() - wall_start
    table.free()
    seq_ms = sum(seq for seq, _ in ops.values())
    par_ms = sum(par for _, par in ops.values())
    return {
        "sequential_modeled_ms": round(seq_ms, 3),
        "parallel_modeled_ms": round(par_ms, 3),
        "modeled_speedup": round(seq_ms / par_ms, 2),
        "per_op_speedup": {
            name: round(seq / par, 2) for name, (seq, par) in ops.items()
        },
        "wall_seconds": round(wall_s, 3),
    }


class TestShardScaling:
    def test_scan_shuffle_compact_scaling(self) -> None:
        by_shards = {w: _composite(w) for w in SHARD_COUNTS}

        print_table(
            f"Sharded composite, modeled scaling (n={N}, hash partition)",
            ["shards", "seq modeled ms", "parallel modeled ms", "speedup", "wall s"],
            [
                [
                    w,
                    m["sequential_modeled_ms"],
                    m["parallel_modeled_ms"],
                    f"{m['modeled_speedup']:.2f}x",
                    m["wall_seconds"],
                ]
                for w, m in by_shards.items()
            ],
        )

        headline = by_shards[4]["modeled_speedup"]
        print(f"4-shard modeled speedup: {headline:.2f}x (host cores: {os.cpu_count()})")

        record_bench(
            "shard",
            {
                "rows": N,
                "schema_row_bytes": SCHEMA.row_size,
                "partitioner": "hash",
                "results": {str(w): m for w, m in by_shards.items()},
                "headline_modeled_speedup_at_4_shards": headline,
            },
            section="composite",
        )

        # Near-linear modeled scaling: the 4-shard critical path must be at
        # least 2.5x shorter than sequential execution of the same work.
        assert headline >= 2.5, f"4-shard modeled speedup {headline} < 2.5"
        # One shard is exactly sequential: no parallel win, no penalty.
        assert by_shards[1]["modeled_speedup"] == 1.0
        # Scaling is monotone in shards.
        speedups = [by_shards[w]["modeled_speedup"] for w in SHARD_COUNTS]
        assert speedups == sorted(speedups)


def _join_composite(shards: int):
    """The sharded hash join at ``shards`` shards."""
    enclave = _enclave()
    left = ShardedTable(
        enclave, "l", SCHEMA, ShardSpec("hash", shards, "id"), [_row(i) for i in range(N)]
    )
    right = ShardedTable(
        enclave,
        "r",
        RIGHT_SCHEMA,
        ShardSpec("hash", shards, "rid"),
        [_right_row(i) for i in range(0, N, 2)],
    )
    snapshot = enclave.cost.snapshot()
    wall_start = time.perf_counter()
    rows = sharded_hash_join(left, right, "id", "rid", enclave.oblivious.free_bytes)
    wall_s = time.perf_counter() - wall_start
    total_ms = enclave.cost.delta_since(snapshot).modeled_time_ms()
    assert len(rows) == N // 2
    parallel_ms = critical_path_ms(total_ms, left.last_recorders)
    return {
        "sequential_modeled_ms": round(total_ms, 3),
        "parallel_modeled_ms": round(parallel_ms, 3),
        "modeled_speedup": round(total_ms / parallel_ms, 2),
        "wall_seconds": round(wall_s, 3),
    }


class TestShardedJoin:
    def test_sharded_join_scaling(self) -> None:
        by_shards = {w: _join_composite(w) for w in JOIN_SHARDS}

        print_table(
            f"Sharded hash join, modeled scaling (|T1|={N}, |T2|={N // 2}, "
            "co-partitioned)",
            ["shards", "seq modeled ms", "parallel modeled ms", "speedup", "wall s"],
            [
                [
                    w,
                    m["sequential_modeled_ms"],
                    m["parallel_modeled_ms"],
                    f"{m['modeled_speedup']:.2f}x",
                    m["wall_seconds"],
                ]
                for w, m in by_shards.items()
            ],
        )

        record_bench(
            "shard",
            {
                "t1_rows": N,
                "t2_rows": N // 2,
                "partitioner": "hash (join key)",
                "results": {str(w): m for w, m in by_shards.items()},
            },
            section="sharded_join",
        )

        headline = by_shards[4]["modeled_speedup"]
        assert headline >= 2.5, f"4-shard modeled join speedup {headline} < 2.5"
        speedups = [by_shards[w]["modeled_speedup"] for w in JOIN_SHARDS]
        assert speedups == sorted(speedups)
