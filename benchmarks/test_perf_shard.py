"""Scaling benchmarks for the sharded parallel execution subsystem.

Three composites, each recording its own section of ``BENCH_shard.json``
at the repository root under ``BENCH_RECORD=1`` (``BENCH_SMOKE=1`` shrinks
workloads):

* **composite** — partitions one table into W shard regions and runs the
  scan + shuffle + compact composite at W = 1, 2, 4(, 8) workers.
* **transport_microbench** — round-trips 1k ~0.5 KB sealed blocks through
  a worker process over the legacy pickle pipe and over the shared-memory
  block transport; the shm path must be ≥ 3× faster (asserted when
  recording — the tentpole acceptance of the transport).
* **sharded_join** — the shard-parallel hash join over a co-partitioned
  pair at W = 1, 2, 4 workers, on real worker processes.

Two kinds of numbers:

* **modeled speedup** — the comparison basis, as everywhere in this repo
  (pure-Python wall-clock does not transfer).  The subsystem records each
  shard's work into its own :class:`ShardTraceRecorder` cost model, so
  the parallel critical path is directly measurable:
  ``parallel = serial_part + max(per-shard modeled)`` where
  ``serial_part`` is whatever the composing parent did outside the shard
  regions.  Speedup is sequential modeled time (= the sum, which is what
  one worker pays) over that critical path.
* **wall-clock seconds** — recorded honestly for regression tracking,
  with the host core count alongside so a 1-core runner's flat
  wall-clock is not mistaken for a scaling failure.  The measured
  sharded-join wall speedup is asserted ≥ 1.5× when recording on a host
  that actually has ≥ 2 cores.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.enclave import Enclave
from repro.enclave.crypto import SealedBlock
from repro.shard import (
    SHM_AVAILABLE,
    ShardPool,
    ShardSpec,
    ShardedTable,
    critical_path_ms,
    sharded_hash_join,
)
from repro.storage import Schema
from repro.storage.schema import float_column, int_column, str_column

from conftest import BENCH_RECORD, BENCH_SMOKE, print_table, record_bench

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
WORKER_COUNTS = (1, 2, 4) if BENCH_SMOKE else (1, 2, 4, 8)
JOIN_WORKERS = (1, 2, 4)
TRANSPORT_BLOCKS = 256 if BENCH_SMOKE else 1024
TRANSPORT_REPS = 3 if BENCH_SMOKE else 12


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


def _measure_op(enclave, table, fn):
    """Run one sharded op; return (sequential_ms, parallel_ms).

    Sequential is the op's full modeled cost (what one worker pays in
    series).  Parallel is the critical path: the parent's serial accesses
    plus the slowest shard's recorded cost.
    """
    snapshot = enclave.cost.snapshot()
    fn()
    total_ms = enclave.cost.delta_since(snapshot).modeled_time_ms()
    return total_ms, critical_path_ms(total_ms, table.last_recorders)


def _composite(workers: int):
    """Scan + shuffle + compact at ``workers`` shards; returns metrics."""
    enclave = Enclave(
        oblivious_memory_bytes=1 << 26,
        cipher="authenticated",
        key=ROOT_KEY,
        keep_trace_events=False,
    )
    rows = [_row(i) for i in range(N)]
    with ShardPool(
        workers, "authenticated", ROOT_KEY, backend="inline", quiet=True
    ) as pool:
        enclave.attach_shard_pool(pool)
        table = ShardedTable(
            enclave, "bench", SCHEMA, ShardSpec("hash", workers, "id"), rows
        )
        ops = {}
        wall_start = time.perf_counter()
        ops["scan"] = _measure_op(
            enclave, table, lambda: table.scan_rows(pool=pool)
        )
        ops["shuffle"] = _measure_op(
            enclave, table, lambda: table.shuffle(pool=pool)
        )
        ops["compact"] = _measure_op(
            enclave, table, lambda: table.compact(pool=pool)
        )
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
        by_workers = {w: _composite(w) for w in WORKER_COUNTS}

        print_table(
            f"Sharded composite scaling (n={N}, hash partition, inline pool)",
            ["workers", "seq modeled ms", "parallel modeled ms", "speedup", "wall s"],
            [
                [
                    w,
                    m["sequential_modeled_ms"],
                    m["parallel_modeled_ms"],
                    f"{m['modeled_speedup']:.2f}x",
                    m["wall_seconds"],
                ]
                for w, m in by_workers.items()
            ],
        )

        headline = by_workers[4]["modeled_speedup"]
        print(
            f"4-worker modeled speedup: {headline:.2f}x "
            f"(host cores: {os.cpu_count()})"
        )

        record_bench(
            "shard",
            {
                "rows": N,
                "schema_row_bytes": SCHEMA.row_size,
                "partitioner": "hash",
                "pool_backend": "inline",
                "results": {str(w): m for w, m in by_workers.items()},
                "headline_modeled_speedup_at_4_workers": headline,
            },
            section="composite",
        )

        # Acceptance: near-linear scaling — the 4-worker composite must be
        # at least 2.5x faster than sequential execution of the same work.
        assert headline >= 2.5, f"4-worker modeled speedup {headline} < 2.5"
        # One worker is exactly sequential: no parallel win, no penalty.
        assert by_workers[1]["modeled_speedup"] == 1.0
        # Scaling is monotone in workers.
        speedups = [by_workers[w]["modeled_speedup"] for w in WORKER_COUNTS]
        assert speedups == sorted(speedups)


class TestShardTransport:
    def test_transport_microbench(self) -> None:
        """Pipe/pickle vs shared-memory framing on the same echo task."""
        if not SHM_AVAILABLE:
            pytest.skip("multiprocessing.shared_memory unavailable")
        blocks = [
            SealedBlock(
                nonce=bytes([i % 251]) * 12,
                ciphertext=bytes([i % 249]) * 480,
                mac=bytes([i % 247]) * 16,
            )
            for i in range(TRANSPORT_BLOCKS)
        ]
        payload_bytes = TRANSPORT_BLOCKS * (12 + 480 + 16)
        # Interleave the reps so background-load spikes hit both transports
        # equally; min-of-reps is the standard latency estimator.
        pools = {
            transport: ShardPool(
                2,
                "authenticated",
                ROOT_KEY,
                backend="process",
                transport=transport,
                quiet=True,
            )
            for transport in ("pipe", "shm")
        }
        times: dict[str, list[float]] = {"pipe": [], "shm": []}
        try:
            for pool in pools.values():
                assert pool.run(0, "echo_blocks", ("", blocks)) == blocks
            for _ in range(TRANSPORT_REPS):
                for transport, pool in pools.items():
                    start = time.perf_counter()
                    pool.run(0, "echo_blocks", ("", blocks))
                    times[transport].append(time.perf_counter() - start)
        finally:
            for pool in pools.values():
                pool.close()
        best = {transport: min(reps) for transport, reps in times.items()}

        speedup = best["pipe"] / best["shm"]
        print_table(
            f"Shard transport round-trip ({TRANSPORT_BLOCKS} sealed blocks, "
            f"{payload_bytes / 1024:.0f} KiB, min of {TRANSPORT_REPS})",
            ["transport", "ms", "speedup"],
            [
                ["pipe (pickle)", round(best["pipe"] * 1e3, 3), "1.00x"],
                ["shm (framed)", round(best["shm"] * 1e3, 3), f"{speedup:.2f}x"],
            ],
        )

        record_bench(
            "shard",
            {
                "task": "echo_blocks",
                "blocks": TRANSPORT_BLOCKS,
                "payload_bytes": payload_bytes,
                "reps": TRANSPORT_REPS,
                "pipe_ms": round(best["pipe"] * 1e3, 3),
                "shm_ms": round(best["shm"] * 1e3, 3),
                "shm_speedup": round(speedup, 2),
            },
            section="transport_microbench",
        )
        # Tentpole acceptance: the shared-memory transport moves 1k
        # half-KB sealed blocks at least 3x faster than pickle-over-pipe.
        if BENCH_RECORD:
            assert speedup >= 3.0, f"shm transport speedup {speedup:.2f} < 3.0"


def _join_composite(workers: int):
    """The sharded hash join at ``workers`` shards on worker processes."""
    enclave = Enclave(
        oblivious_memory_bytes=1 << 26,
        cipher="authenticated",
        key=ROOT_KEY,
        keep_trace_events=False,
    )
    spec = ShardSpec("hash", workers, "id")
    right_spec = ShardSpec("hash", workers, "rid")
    left = ShardedTable(
        enclave, "l", SCHEMA, spec, [_row(i) for i in range(N)]
    )
    right = ShardedTable(
        enclave,
        "r",
        RIGHT_SCHEMA,
        right_spec,
        [_right_row(i) for i in range(0, N, 2)],
    )
    with ShardPool(
        workers, "authenticated", ROOT_KEY, backend="process", quiet=True
    ) as pool:
        snapshot = enclave.cost.snapshot()
        wall_start = time.perf_counter()
        rows = sharded_hash_join(
            left, right, "id", "rid", enclave.oblivious.free_bytes, pool=pool
        )
        wall_s = time.perf_counter() - wall_start
        total_ms = enclave.cost.delta_since(snapshot).modeled_time_ms()
        transport = pool.transport
    assert len(rows) == N // 2
    parallel_ms = critical_path_ms(total_ms, left.last_recorders)
    return {
        "sequential_modeled_ms": round(total_ms, 3),
        "parallel_modeled_ms": round(parallel_ms, 3),
        "modeled_speedup": round(total_ms / parallel_ms, 2),
        "wall_seconds": round(wall_s, 3),
        "transport": transport,
    }


class TestShardedJoin:
    def test_sharded_join_scaling(self) -> None:
        by_workers = {w: _join_composite(w) for w in JOIN_WORKERS}
        wall_speedup = round(
            by_workers[1]["wall_seconds"]
            / max(1e-9, by_workers[JOIN_WORKERS[-1]]["wall_seconds"]),
            2,
        )

        print_table(
            f"Sharded hash join scaling (|T1|={N}, |T2|={N // 2}, "
            "co-partitioned, process pool)",
            ["workers", "seq modeled ms", "parallel modeled ms", "speedup", "wall s"],
            [
                [
                    w,
                    m["sequential_modeled_ms"],
                    m["parallel_modeled_ms"],
                    f"{m['modeled_speedup']:.2f}x",
                    m["wall_seconds"],
                ]
                for w, m in by_workers.items()
            ],
        )
        cores = os.cpu_count() or 1
        print(
            f"measured wall speedup at {JOIN_WORKERS[-1]} workers: "
            f"{wall_speedup:.2f}x (host cores: {cores})"
        )

        record_bench(
            "shard",
            {
                "t1_rows": N,
                "t2_rows": N // 2,
                "partitioner": "hash (join key)",
                "pool_backend": "process",
                "transport": by_workers[JOIN_WORKERS[-1]]["transport"],
                "results": {str(w): m for w, m in by_workers.items()},
                "measured_wall_speedup_at_max_workers": wall_speedup,
            },
            section="sharded_join",
        )

        headline = by_workers[4]["modeled_speedup"]
        assert headline >= 2.5, f"4-worker modeled join speedup {headline} < 2.5"
        speedups = [by_workers[w]["modeled_speedup"] for w in JOIN_WORKERS]
        assert speedups == sorted(speedups)
        # Measured wall-clock only means something with real parallelism on
        # offer; a 1-core runner's flat wall-clock is expected, not a bug.
        if cores >= 2 and BENCH_RECORD:
            assert wall_speedup >= 1.5, (
                f"measured wall speedup {wall_speedup:.2f} < 1.5 "
                f"on a {cores}-core host"
            )
