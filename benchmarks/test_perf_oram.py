"""Microbenchmark for the batched ORAM path pipeline.

Measures the indexed storage method's hot paths with the *real*
``AuthenticatedCipher`` and the paper's ~0.5 KB record regime: raw Path and
Ring ORAM access rates, oblivious B+ tree point lookups over both ORAMs
(the acceptance workload), a leaf-level range scan, and the padded insert
path.  Under ``BENCH_RECORD=1`` results go to ``BENCH_oram.json`` at the
repository root so future PRs can track the performance trajectory.

The module deliberately uses only APIs that exist in every version of the
repo (``PathORAM``/``RingORAM`` read/write, ``ObliviousBPlusTree`` with an
``oram_factory``, ``search``/``range_scan``/``insert``), so the same file
can be executed against older checkouts to compute speedups.  The headline
number is ``indexed_point_lookup_seconds``: one batch of point lookups on a
Path-ORAM-backed tree plus one on a Ring-ORAM-backed tree.  The recorded
``seed`` section holds the same metrics measured at the seed commit
(a7808bc, pre-batching) on the same machine; ``speedup`` is seed/current.
"""

from __future__ import annotations

import random
import time

from repro import ObliDB
from repro.enclave import Enclave
from repro.oram import PathORAM, RingORAM
from repro.storage import StorageMethod
from repro.storage.btree import ObliviousBPlusTree
from repro.storage.schema import Schema, float_column, int_column, str_column

from conftest import BENCH_SMOKE, REPEATS, best_of, print_table, record_bench

#: ~0.5 KB per record (the paper's block-size regime); the tree's ORAM
#: block size is this plus node/record framing.
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

# BENCH_SMOKE=1 (the CI bench-smoke job) shrinks the workload ~4-8x.
ORAM_BLOCKS = 64 if BENCH_SMOKE else 256
PROBES = 40 if BENCH_SMOKE else 200
TREE_CAPACITY = 32 if BENCH_SMOKE else 128
TREE_ROWS = 24 if BENCH_SMOKE else 96
LOOKUPS = 8 if BENCH_SMOKE else 32
RANGE_SPAN = 8 if BENCH_SMOKE else 24
RANGE_LO = 6 if BENCH_SMOKE else 20

#: Seed-commit (a7808bc) numbers for the same workloads on the same
#: machine, recorded so the JSON carries the trajectory even when the seed
#: tree is no longer checked out.  Regenerate by running this file against
#: the seed with ``git worktree`` if the hardware changes.
SEED_BASELINE: dict[str, float] = {
    "btree_build_path_rows_per_s": 44.65,
    "btree_build_ring_rows_per_s": 61.425,
    "btree_range_scan_rows_per_s": 336.89,
    "indexed_point_lookup_seconds": 0.629,
    "path_oram_reads_per_s": 562.704,
    "path_point_lookups_per_s": 86.48,
    "ring_oram_reads_per_s": 865.559,
    "ring_point_lookups_per_s": 123.763,
}


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


def _build_tree(oram_factory=None) -> ObliviousBPlusTree:
    tree = ObliviousBPlusTree(
        _enclave(),
        SCHEMA,
        "id",
        TREE_CAPACITY,
        rng=random.Random(7),
        oram_factory=oram_factory,
    )
    order = list(range(TREE_ROWS))
    random.Random(11).shuffle(order)
    for key in order:
        tree.insert(_row(key))
    return tree


def _ring_factory(enclave, capacity, block_size, rng):
    return RingORAM(enclave, capacity, block_size, rng=rng)


class TestORAMMicrobench:
    def test_point_lookup_access_counts(self) -> None:
        """Counts, not wall clock, so armed in every run: an indexed point
        lookup at 1 024 rows is the leaf, the record and two of padding;
        the paper's tree reads its three interior levels from the ORAM too.
        Beyond the ORAM's paths, the default index's held segment touches
        nothing; the paper's spills to a flat scratch — a hit is 3 reads
        there (statistics pass, Small's pass, result read) and 4 writes (two
        allocations, the copy-in, the flush), a miss 42 and 34 (the copy-in
        writes the one-slot scratch's dummy as a hit writes its row; then
        Hash into one chain, and compaction)."""
        schema = Schema([int_column("id"), str_column("pad", 24)])
        rows = [(key, f"row-{key}") for key in range(1024)]
        random.Random(3).shuffle(rows)
        for oram_kind, accesses, hit, miss in (
            ("path", 4, (0, 0), (0, 0)),
            ("paper", 7, (3, 4), (42, 34)),
        ):
            db = ObliDB(cipher="null", seed=7, keep_trace_events=True)
            db.create_table(
                "accounts", schema, 1024, method=StorageMethod.BOTH,
                key_column="id", oram_kind=oram_kind,
            )
            db.insert_many("accounts", rows)
            assert db.table("accounts").indexed.tree.height == 4
            oram = db.table("accounts").indexed.oram.region_name
            for key in (0, 511, 1023, 4096):  # hits and a miss cost alike
                start = len(db.enclave.trace.events)
                result = db.sql(f"SELECT * FROM accounts WHERE id = {key}")
                assert len(result.rows) == (key < 1024)
                assert result.cost["oram_accesses"] == accesses, oram_kind
                flat = [
                    event.op
                    for event in db.enclave.trace.events[start:]
                    if event.region != oram
                ]
                expected = hit if key < 1024 else miss
                assert (flat.count("R"), flat.count("W")) == expected, (oram_kind, key)

    def test_oram_pipeline_rates(self) -> None:
        results: dict[str, float] = {}
        table_rows: list[list] = []

        # --- raw ORAM access rates (512 B blocks) ---------------------
        probes = PROBES
        for label, factory in (
            ("path", lambda e: PathORAM(e, ORAM_BLOCKS, 512, rng=random.Random(1))),
            ("ring", lambda e: RingORAM(e, ORAM_BLOCKS, 512, rng=random.Random(1))),
        ):
            oram = factory(_enclave())
            payload = b"p" * 256
            for block in range(0, ORAM_BLOCKS, 4):
                oram.write(block, payload)
            rng = random.Random(5)
            blocks = [rng.randrange(ORAM_BLOCKS) for _ in range(probes)]

            def read_pass(oram=oram, blocks=blocks) -> None:
                for block in blocks:
                    oram.read(block)

            seconds = best_of(read_pass)
            results[f"{label}_oram_reads_per_s"] = probes / seconds
            table_rows.append(
                [f"{label} ORAM reads (512 B)", probes, f"{probes / seconds:,.0f}/s"]
            )

        # --- B+ tree build (padded inserts) ---------------------------
        build_start = time.perf_counter()
        path_tree = _build_tree()
        results["btree_build_path_rows_per_s"] = TREE_ROWS / (
            time.perf_counter() - build_start
        )
        build_start = time.perf_counter()
        ring_tree = _build_tree(_ring_factory)
        results["btree_build_ring_rows_per_s"] = TREE_ROWS / (
            time.perf_counter() - build_start
        )
        table_rows.append(
            [
                "B+ tree build over Path ORAM",
                TREE_ROWS,
                f"{results['btree_build_path_rows_per_s']:,.0f} rows/s",
            ]
        )
        table_rows.append(
            [
                "B+ tree build over Ring ORAM",
                TREE_ROWS,
                f"{results['btree_build_ring_rows_per_s']:,.0f} rows/s",
            ]
        )

        # --- indexed point lookups (headline composite) ---------------
        keys = random.Random(23).sample(range(TREE_ROWS), LOOKUPS)

        def lookups(tree) -> None:
            for key in keys:
                assert tree.search(key)

        path_lookup_s = best_of(lambda: lookups(path_tree))
        ring_lookup_s = best_of(lambda: lookups(ring_tree))
        results["path_point_lookups_per_s"] = LOOKUPS / path_lookup_s
        results["ring_point_lookups_per_s"] = LOOKUPS / ring_lookup_s
        headline = path_lookup_s + ring_lookup_s
        results["indexed_point_lookup_seconds"] = headline
        table_rows.append(
            ["point lookups (Path)", LOOKUPS, f"{LOOKUPS / path_lookup_s:,.0f}/s"]
        )
        table_rows.append(
            ["point lookups (Ring)", LOOKUPS, f"{LOOKUPS / ring_lookup_s:,.0f}/s"]
        )
        table_rows.append(
            ["indexed point-lookup composite", 2 * LOOKUPS, f"{headline:.3f} s"]
        )

        # --- B+ tree range scan ---------------------------------------
        scan_s = best_of(
            lambda: path_tree.range_scan(RANGE_LO, RANGE_LO + RANGE_SPAN - 1)
        )
        results["btree_range_scan_rows_per_s"] = RANGE_SPAN / scan_s
        table_rows.append(
            [
                f"range scan ({RANGE_SPAN} rows, Path)",
                RANGE_SPAN,
                f"{RANGE_SPAN / scan_s:,.0f} rows/s",
            ]
        )

        print_table(
            "ORAM pipeline microbenchmark (AuthenticatedCipher)",
            ["stage", "n", "throughput"],
            table_rows,
        )

        payload: dict = {
            "benchmark": "oram_pipeline",
            "cipher": "authenticated",
            "schema_row_bytes": SCHEMA.row_size,
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
        record_bench("oram", payload)

        # Sanity floor only (CI machines vary); the JSON carries the
        # precise numbers and the seed-relative speedups.
        assert headline < 10.0
