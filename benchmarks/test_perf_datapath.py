"""Microbenchmark for the vectorized sealed-block data path.

Measures rows/second through the layers the batched pipeline touches —
seal/open crypto, full oblivious scans, oblivious insert passes, and the
bitonic sorting network — with the *real* ``AuthenticatedCipher`` and the
paper's block size: rows encode to ~0.5 KB, matching the 512 B blocks the
ObliDB evaluation (and our :class:`~repro.enclave.counters.CostWeights`)
assume.  Under ``BENCH_RECORD=1`` results go to ``BENCH_datapath.json`` at
the repository root so future PRs can track the performance trajectory.

The module deliberately uses only APIs that exist in every version of the
repo (``FlatStorage``, ``rows()``, ``bitonic_sort``, ``cipher.seal/open``),
so the same file can be executed against older checkouts to compute
speedups.  The headline number is ``scan_sort_1k``: one full oblivious scan
plus a bitonic sort of a 1k-row table, the acceptance workload for the
batched data path.
"""

from __future__ import annotations

from repro.enclave import Enclave
from repro.operators.sort import bitonic_sort
from repro.storage import FlatStorage, Schema
from repro.storage.schema import float_column, int_column, str_column

from conftest import BENCH_SMOKE, REPEATS, best_of, print_table, record_bench

#: ~0.5 KB per framed row (8 + 4*120 + 8 payload bytes + flag), the paper's
#: block size regime.
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
# Workload sizes; BENCH_SMOKE=1 (the CI bench-smoke job) shrinks them ~8x
# so the harness stays exercised on every push.
CRYPTO_BLOCKS = 250 if BENCH_SMOKE else 2000
SCAN_SIZES = (32, 128) if BENCH_SMOKE else (256, 1024, 4096)
SORT_SIZES = (32, 128) if BENCH_SMOKE else (256, 1024)
HEADLINE_N = 128 if BENCH_SMOKE else 1024


def _enclave() -> Enclave:
    return Enclave(cipher="authenticated", keep_trace_events=False)


def _populate(enclave: Enclave, n: int) -> FlatStorage:
    table = FlatStorage(enclave, SCHEMA, n)
    for i in range(n):
        table.fast_insert(
            (
                i * 7919 % n,
                f"user{i:05d}",
                f"{i} enclave road",
                "x" * 100,
                "y" * 100,
                float(i) * 0.5,
            )
        )
    return table


class TestDatapathMicrobench:
    def test_datapath_rows_per_second(self) -> None:
        results: dict[str, float] = {}
        table_rows: list[list] = []

        # --- crypto: seal/open of framed-row-sized blocks -------------
        enclave = _enclave()
        framed = b"\x01" + b"\x00" * SCHEMA.row_size
        n_blocks = CRYPTO_BLOCKS
        aads = [f"bench:{i}".encode() for i in range(n_blocks)]

        def seal_pass() -> None:
            self._sealed = [
                enclave.seal(framed, aad) for aad in aads
            ]

        seal_s = best_of(seal_pass)
        results["seal_blocks_per_s"] = n_blocks / seal_s

        sealed = self._sealed

        def open_pass() -> None:
            for block, aad in zip(sealed, aads):
                enclave.open(block, aad)

        open_s = best_of(open_pass)
        results["open_blocks_per_s"] = n_blocks / open_s
        block_bytes = len(framed)
        table_rows.append([f"seal ({block_bytes} B blocks)", n_blocks, f"{results['seal_blocks_per_s']:,.0f}/s"])
        table_rows.append([f"open ({block_bytes} B blocks)", n_blocks, f"{results['open_blocks_per_s']:,.0f}/s"])

        # --- storage: full oblivious scans ----------------------------
        for n in SCAN_SIZES:
            enclave = _enclave()
            table = _populate(enclave, n)
            scan_s = best_of(table.rows)
            results[f"scan_{n}_rows_per_s"] = n / scan_s
            table_rows.append([f"full scan n={n}", n, f"{n / scan_s:,.0f} rows/s"])

        # --- storage: one oblivious insert pass -----------------------
        enclave = _enclave()
        table = FlatStorage(enclave, SCHEMA, HEADLINE_N)
        insert_s = best_of(
            lambda: table.insert((1, "a", "b", "c", "d", 2.0))
        )
        results["oblivious_insert_1k_rows_per_s"] = HEADLINE_N / insert_s
        table_rows.append(
            [
                f"oblivious insert pass n={HEADLINE_N}",
                HEADLINE_N,
                f"{HEADLINE_N / insert_s:,.0f} rows/s",
            ]
        )

        # --- operators: bitonic sort ----------------------------------
        sort_times: dict[int, float] = {}
        for n in SORT_SIZES:
            def sort_once(n: int = n) -> None:
                enclave = _enclave()
                table = _populate(enclave, n)
                bitonic_sort(table, key=lambda row: (row[0],))

            sort_s = best_of(sort_once)
            sort_times[n] = sort_s
            results[f"bitonic_sort_{n}_rows_per_s"] = n / sort_s
            table_rows.append([f"bitonic sort n={n}", n, f"{n / sort_s:,.0f} rows/s"])

        # --- headline: scan + sort at 1k (acceptance workload) --------
        def scan_sort_1k() -> None:
            enclave = _enclave()
            table = _populate(enclave, HEADLINE_N)
            table.rows()
            bitonic_sort(table, key=lambda row: (row[0],))

        headline_s = best_of(scan_sort_1k)
        results["scan_sort_1k_seconds"] = headline_s
        table_rows.append(
            [f"scan+sort n={HEADLINE_N} (headline)", HEADLINE_N, f"{headline_s:.3f} s"]
        )

        print_table(
            "Datapath microbenchmark (AuthenticatedCipher)",
            ["stage", "n", "throughput"],
            table_rows,
        )

        record_bench(
            "datapath",
            {
                "benchmark": "datapath",
                "cipher": "authenticated",
                "schema_row_bytes": SCHEMA.row_size,
                "repeats_best_of": REPEATS,
                "results": {k: round(v, 3) for k, v in results.items()},
            },
        )

        # Sanity floor: the batched data path should comfortably clear the
        # seed's ~590 rows/s on the headline workload.  Keep the floor loose
        # (CI machines vary); the JSON carries the precise numbers.
        assert headline_s < 2.0
