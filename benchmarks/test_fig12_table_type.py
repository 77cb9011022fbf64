"""Figure 12: workloads L1-L5 on flat, indexed, and combined tables.

Paper (100k-row table): no single storage method dominates — insert-heavy
L1 favours flat (constant-time inserts), point-read-heavy L3/L4 favour the
index, scan-heavy L5 favours flat, and the combined representation is
competitive across the board (best or near-best on the mixed workloads)
despite paying double write costs.

Scaled: 512-row table, 30 operations per workload, modeled ops/sec.
"""

from __future__ import annotations

from conftest import fresh_enclave, load_table, print_table
from repro.storage import StorageMethod
from repro.workloads import WORKLOADS, kv_rows, run_workload

ROWS = 512
OPERATIONS = 30


def run_grid() -> dict[str, dict[str, float]]:
    """workload -> method -> modeled ops/sec."""
    results: dict[str, dict[str, float]] = {}
    for workload in sorted(WORKLOADS):
        results[workload] = {}
        for method in (StorageMethod.FLAT, StorageMethod.INDEXED, StorageMethod.BOTH):
            enclave = fresh_enclave()
            table = load_table(
                enclave,
                f"{workload}_{method.value}",
                # KV schema with key column for the index.
                __import__("repro.workloads", fromlist=["KV_SCHEMA"]).KV_SCHEMA,
                kv_rows(ROWS),
                method=method,
                key_column="key" if method is not StorageMethod.FLAT else None,
                capacity=ROWS + OPERATIONS + 8,
                oram_kind="paper",  # the figure compares the paper's index
            )
            report = run_workload(
                table, workload, operations=OPERATIONS, key_space=ROWS, seed=12
            )
            results[workload][method.value] = report.ops_per_second
    return results


def test_fig12_storage_method_grid(benchmark) -> None:
    results = benchmark.pedantic(run_grid, rounds=1, iterations=1)
    print_table(
        f"Figure 12: modeled ops/sec, {ROWS}-row table, {OPERATIONS} ops",
        ["workload", "flat", "indexed", "both"],
        [
            [
                workload,
                f"{results[workload]['flat']:.1f}",
                f"{results[workload]['indexed']:.1f}",
                f"{results[workload]['both']:.1f}",
            ]
            for workload in sorted(results)
        ],
    )

    # L1 (90% inserts): flat's constant-time insert dominates.
    assert results["L1"]["flat"] > results["L1"]["indexed"]

    # L3 (50% point reads / 50% large reads, no writes): the index-backed
    # methods beat pure flat scans.
    assert results["L3"]["indexed"] > results["L3"]["flat"]
    assert results["L3"]["both"] > results["L3"]["flat"]

    # The combined method is never catastrophically worse than the best
    # single method (within 4x on every workload), while single methods
    # lose by far more somewhere — the figure's argument for BOTH.
    for workload, by_method in results.items():
        best = max(by_method.values())
        assert by_method["both"] >= best / 4.0, (workload, by_method)

    benchmark.extra_info["grid"] = {
        workload: {m: round(v, 1) for m, v in by_method.items()}
        for workload, by_method in results.items()
    }
