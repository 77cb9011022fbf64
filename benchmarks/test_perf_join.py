"""Microbenchmark for the cross-region interleaved join data path.

Measures the operator paths that interleave reads and writes across *two*
untrusted regions — the hash-join probe (R T2 / W output), the sort-merge
union and merge scans (R source / W scratch, R scratch / W output), and
``FlatStorage.copy_to`` — with the *real* ``AuthenticatedCipher`` and the
paper's ~0.5 KB record regime.  These are the paths PR 3 rides on the
interleaved-exchange primitive.  Under ``BENCH_RECORD=1`` results go to
``BENCH_join.json`` at the repository root so future PRs can track the
performance trajectory.

The module deliberately uses only APIs that exist in every version of the
repo (``FlatStorage``/``fast_insert``/``copy_to``, ``hash_join``,
``opaque_join``), so the same file can be executed against older checkouts
to compute speedups.  The headline number is ``join_composite_seconds``:
one 1k×1k hash join plus one 1k×1k Opaque-style sort-merge join.  The
recorded ``seed`` section holds the same metrics measured at the seed
commit (a7808bc, per-row loops throughout) on the same machine;
``speedup`` is seed/current.
"""

from __future__ import annotations

from repro.enclave import Enclave
from repro.operators.join import hash_join, opaque_join
from repro.storage import FlatStorage, Schema
from repro.storage.schema import float_column, int_column, str_column

from conftest import BENCH_SMOKE, REPEATS, best_of, print_table, record_bench

#: ~0.5 KB per framed row on each side (the paper's block-size regime);
#: joined rows and the tagged union scratch are ~1 KB.
T1_SCHEMA = Schema(
    [
        int_column("id"),
        str_column("name", 120),
        str_column("address", 120),
        str_column("notes", 120),
        str_column("payload", 120),
        float_column("score"),
    ]
)
T2_SCHEMA = Schema(
    [
        int_column("fk"),
        str_column("order_ref", 120),
        str_column("detail", 120),
        str_column("comment", 120),
        str_column("extra", 120),
        float_column("amount"),
    ]
)

# BENCH_SMOKE=1 (the CI bench-smoke job) shrinks the sides ~8x.
N = 128 if BENCH_SMOKE else 1024  # rows per side: the 1k×1k acceptance workload
#: Sized so the hash build and one sort chunk fit: a single probe pass and a
#: single quicksorted chunk, the configuration Figure 8's right edge uses.
OM_BYTES = 1 << 23

#: Seed-commit (a7808bc) numbers for the same workloads on the same
#: machine, recorded so the JSON carries the trajectory even when the seed
#: tree is no longer checked out.  Regenerate by running this file against
#: the seed with ``git worktree`` if the hardware changes.
SEED_BASELINE: dict[str, float] = {
    "copy_to_rows_per_s": 9667.793,
    "hash_join_1k_seconds": 0.206,
    "hash_join_probe_rows_per_s": 4966.492,
    "join_composite_seconds": 1.226,
    "opaque_join_1k_seconds": 1.02,
    "opaque_join_rows_per_s": 2007.952,
}


def _enclave() -> Enclave:
    return Enclave(
        oblivious_memory_bytes=1 << 26,
        cipher="authenticated",
        keep_trace_events=False,
    )


def _populate(enclave: Enclave, schema: Schema, keys: list[int]) -> FlatStorage:
    table = FlatStorage(enclave, schema, len(keys))
    for i, key in enumerate(keys):
        table.fast_insert(
            (
                key,
                f"row{i:05d}",
                f"{i} enclave road",
                "x" * 100,
                "y" * 100,
                float(i) * 0.5,
            )
        )
    return table


def _join_tables(enclave: Enclave) -> tuple[FlatStorage, FlatStorage]:
    # T1 is the primary side (unique keys); T2's foreign keys hit ~half of
    # T1 so both the match and the dummy-emit probe branches are exercised.
    t1 = _populate(enclave, T1_SCHEMA, [(i * 7919) % N for i in range(N)])
    t2 = _populate(enclave, T2_SCHEMA, [(i * 2) % N for i in range(N)])
    return t1, t2


class TestJoinMicrobench:
    def test_join_datapath_rates(self) -> None:
        results: dict[str, float] = {}
        table_rows: list[list] = []

        enclave = _enclave()
        t1, t2 = _join_tables(enclave)

        # --- hash join: probe streams T2 against the enclave build ----
        def run_hash_join() -> None:
            hash_join(t1, t2, "id", "fk", OM_BYTES).free()

        hash_s = best_of(run_hash_join)
        results["hash_join_1k_seconds"] = hash_s
        results["hash_join_probe_rows_per_s"] = N / hash_s
        table_rows.append(
            [f"hash join {N}x{N}", N, f"{hash_s:.3f} s ({N / hash_s:,.0f} probes/s)"]
        )

        # --- sort-merge join: union + oblivious sort + merge scan -----
        def run_opaque_join() -> None:
            opaque_join(t1, t2, "id", "fk", OM_BYTES).free()

        merge_s = best_of(run_opaque_join)
        results["opaque_join_1k_seconds"] = merge_s
        results["opaque_join_rows_per_s"] = 2 * N / merge_s
        table_rows.append(
            [
                f"sort-merge join {N}x{N}",
                2 * N,
                f"{merge_s:.3f} s ({2 * N / merge_s:,.0f} rows/s)",
            ]
        )

        # --- copy_to: the interleaved table-growth path ---------------
        def run_copy_to() -> None:
            t1.copy_to(capacity=N).free()

        copy_s = best_of(run_copy_to)
        results["copy_to_rows_per_s"] = N / copy_s
        table_rows.append(
            [f"copy_to n={N}", N, f"{N / copy_s:,.0f} rows/s"]
        )

        # --- headline: hash join + sort-merge join composite ----------
        headline = hash_s + merge_s
        results["join_composite_seconds"] = headline
        table_rows.append(
            [f"join composite {N}x{N} (headline)", 2 * N, f"{headline:.3f} s"]
        )

        print_table(
            "Join data-path microbenchmark (AuthenticatedCipher)",
            ["stage", "n", "throughput"],
            table_rows,
        )

        payload: dict = {
            "benchmark": "join_datapath",
            "cipher": "authenticated",
            "rows_per_side": N,
            "t1_row_bytes": T1_SCHEMA.row_size,
            "t2_row_bytes": T2_SCHEMA.row_size,
            "repeats_best_of": REPEATS,
            "results": {k: round(v, 3) for k, v in results.items()},
        }
        if SEED_BASELINE:
            payload["seed"] = {k: round(v, 3) for k, v in SEED_BASELINE.items()}
            payload["seed_commit"] = "a7808bc"
            speedup = {}
            for key, seed_value in SEED_BASELINE.items():
                if key not in results or not seed_value:
                    continue
                if key.endswith("_seconds"):
                    speedup[key] = round(seed_value / results[key], 2)
                else:
                    speedup[key] = round(results[key] / seed_value, 2)
            payload["speedup"] = speedup
        record_bench("join", payload)

        # Sanity floor only (CI machines vary); the JSON carries the
        # precise numbers and the seed-relative speedups.
        assert headline < 10.0
