"""Microbenchmark for the oblivious shuffle & compaction subsystem.

Measures the two jobs ``repro.oblivious`` takes over from the oblivious
sorters — destroying order (bucket shuffle vs sorting by a random key) and
compacting real rows to the front (shift-network compaction vs a
dummies-last bitonic sort) — with the *real* ``AuthenticatedCipher`` and
the paper's ~0.5 KB record regime.  Under ``BENCH_RECORD=1`` results go to
``BENCH_shuffle.json`` at the repository root.

Unlike the PR 1-3 benchmarks there is no seed baseline: the subsystem is
new, so the comparator is the *sort-based path it replaces*, measured in
the same run on the same machine.  The headline acceptance is the
``vs_sort`` ratio: the shuffle-based compaction path must beat sort-based
compaction on the 1k-row composite (asserted when recording, not just
recorded: it compares two wall-clock timings).

``BENCH_SMOKE=1`` shrinks the workload ~8x (the CI bench-smoke job).
"""

from __future__ import annotations

import hashlib
import random

from repro.enclave import Enclave
from repro.oblivious import oblivious_compact, oblivious_shuffle
from repro.operators.sort import bitonic_sort
from repro.storage import FlatStorage, Schema
from repro.storage.schema import float_column, int_column, str_column

from conftest import (
    BENCH_RECORD,
    BENCH_SMOKE,
    REPEATS,
    best_of,
    print_table,
    record_bench,
)

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

N = 128 if BENCH_SMOKE else 1024  # power of two: the sorters need it
#: Real rows in the compaction workload (the rest of the table is dummies,
#: scattered — the shape a filter front leaves behind).
REAL_ROWS = N // 2


def _enclave() -> Enclave:
    return Enclave(
        oblivious_memory_bytes=1 << 26,
        cipher="authenticated",
        keep_trace_events=False,
    )


def _row(i: int) -> tuple:
    return (
        i,
        f"user{i:05d}",
        f"{i} enclave road",
        "x" * 100,
        "y" * 100,
        float(i) * 0.5,
    )


def _full_table(enclave: Enclave) -> FlatStorage:
    table = FlatStorage(enclave, SCHEMA, N)
    for i in range(N):
        table.fast_insert(_row(i))
    return table


def _sparse_table(enclave: Enclave) -> FlatStorage:
    """REAL_ROWS rows scattered pseudo-randomly among dummies."""
    table = FlatStorage(enclave, SCHEMA, N)
    positions = random.Random(17).sample(range(N), REAL_ROWS)
    for rank, position in enumerate(sorted(positions)):
        table.write_row(position, _row(rank))
        table._used += 1
    return table


def _random_sort_key(salt: int):
    """Sorting by this key is the sort-based way to destroy order."""

    def key(row: tuple) -> tuple:
        digest = hashlib.blake2b(
            f"{salt}:{row[0]}".encode(), digest_size=8
        ).digest()
        return (digest,)

    return key


class TestShuffleCompactionMicrobench:
    def test_shuffle_and_compaction_vs_sort(self) -> None:
        results: dict[str, float] = {}
        table_rows: list[list] = []

        # --- destroy order: bucket shuffle vs sort-by-random-key ------
        enclave = _enclave()
        table = _full_table(enclave)

        def run_shuffle() -> None:
            oblivious_shuffle(table, random.Random(3)).free()

        shuffle_s = best_of(run_shuffle)
        results["shuffle_seconds"] = shuffle_s
        results["shuffle_rows_per_s"] = N / shuffle_s
        table_rows.append(
            [f"bucket shuffle n={N}", N, f"{shuffle_s:.3f} s ({N / shuffle_s:,.0f} rows/s)"]
        )

        def run_sort_shuffle() -> None:
            enclave = _enclave()
            scratch = _full_table(enclave)
            bitonic_sort(scratch, key=_random_sort_key(7))

        sort_shuffle_s = best_of(run_sort_shuffle)
        results["sort_shuffle_seconds"] = sort_shuffle_s
        table_rows.append(
            [f"sort by random key n={N}", N, f"{sort_shuffle_s:.3f} s"]
        )

        # --- compaction: shift network vs dummies-last bitonic sort ---
        def run_compact() -> None:
            enclave = _enclave()
            sparse = _sparse_table(enclave)
            oblivious_compact(sparse)

        compact_s = best_of(run_compact)
        results["compact_seconds"] = compact_s
        results["compact_rows_per_s"] = N / compact_s
        table_rows.append(
            [
                f"oblivious compaction n={N} ({REAL_ROWS} real)",
                N,
                f"{compact_s:.3f} s ({N / compact_s:,.0f} rows/s)",
            ]
        )

        def run_sort_compact() -> None:
            enclave = _enclave()
            sparse = _sparse_table(enclave)
            # The sort-based compaction the subsystem replaces: any constant
            # key — the dummies-last lift does all the work.
            bitonic_sort(sparse, key=lambda row: ())

        sort_compact_s = best_of(run_sort_compact)
        results["sort_compact_seconds"] = sort_compact_s
        table_rows.append(
            [f"sort-based compaction n={N}", N, f"{sort_compact_s:.3f} s"]
        )

        # --- headline composite ---------------------------------------
        headline = shuffle_s + compact_s
        sort_headline = sort_shuffle_s + sort_compact_s
        results["shuffle_compact_composite_seconds"] = headline
        results["sort_based_composite_seconds"] = sort_headline
        table_rows.append(
            [
                f"shuffle+compact composite n={N} (headline)",
                2 * N,
                f"{headline:.3f} s (sort-based: {sort_headline:.3f} s)",
            ]
        )

        vs_sort = {
            "shuffle": round(sort_shuffle_s / shuffle_s, 2),
            "compaction": round(sort_compact_s / compact_s, 2),
            "composite": round(sort_headline / headline, 2),
        }

        print_table(
            "Shuffle & compaction microbenchmark (AuthenticatedCipher)",
            ["stage", "n", "time"],
            table_rows,
        )
        print(f"speedup vs sort-based paths: {vs_sort}")

        record_bench(
            "shuffle",
            {
                "benchmark": "shuffle_compaction",
                "cipher": "authenticated",
                "rows": N,
                "real_rows_in_compaction": REAL_ROWS,
                "schema_row_bytes": SCHEMA.row_size,
                "repeats_best_of": REPEATS,
                "results": {k: round(v, 3) for k, v in results.items()},
                "vs_sort": vs_sort,
            },
        )

        # Acceptance: the shuffle-based compaction path must beat the
        # sort-based path it replaces — this is the subsystem's reason to
        # exist, so it is asserted, not just recorded.
        if BENCH_RECORD:
            assert compact_s < sort_compact_s
            assert shuffle_s < sort_shuffle_s
