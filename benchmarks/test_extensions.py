"""Benchmarks for the paper-cited extensions implemented beyond the core.

* **Ring ORAM** (Section 8): "would result in performance improvements
  corresponding to the approximately 1.5x improvement of Ring ORAM over
  Path ORAM."  We measure byte traffic per access under both stores, and
  end-to-end point lookups through the B+ tree.

* **Randomized Shellsort** (Section 4.3): O(n log n) comparisons against
  bitonic's O(n log^2 n), probabilistically correct.  We measure the
  comparison-count growth rate.

* **Write-ahead log** (Section 3): "appends ... would not leak any
  additional information" — we measure the per-statement overhead of WAL
  on a write workload (it should be a small constant per statement).
"""

from __future__ import annotations

import functools
import random

from conftest import fresh_enclave, print_table
from repro.engine import ObliDB
from repro.oram import PathORAM, RingORAM
from repro.operators import bitonic_sort, randomized_shellsort
from repro.storage import FlatStorage, IndexedStorage, Schema, int_column
from repro.workloads import KV_SCHEMA, kv_rows

PROBES = 150


def ring_vs_path() -> dict[str, float]:
    capacity = 256
    out: dict[str, float] = {}
    # Section 8 compares Ring ORAM with the paper's Path ORAM: no treetop.
    paper_path = functools.partial(PathORAM, treetop_levels=0)
    for name, cls, slot_blocks in (("path", paper_path, 4), ("ring", RingORAM, 1)):
        enclave = fresh_enclave()
        oram = cls(enclave, capacity, 32, rng=random.Random(1))
        for block in range(capacity):
            oram.write(block, b"x")
        rng = random.Random(2)
        before = enclave.cost.block_ios
        for _ in range(PROBES):
            oram.read(rng.randrange(capacity))
        # Path moves Z-slot buckets per IO; Ring moves single slots.
        out[name] = (enclave.cost.block_ios - before) * slot_blocks / PROBES
        oram.free()
    return out


def ring_vs_path_in_tree() -> dict[str, float]:
    out: dict[str, float] = {}
    for name, kind, slot_blocks in (("path", "paper", 4), ("ring", "ring", 1)):
        enclave = fresh_enclave()
        index = IndexedStorage(
            enclave, KV_SCHEMA, "key", 300,
            rng=random.Random(3), oram_kind=kind,
        )
        for row in kv_rows(200):
            index.insert(row)
        rng = random.Random(4)
        before = enclave.cost.block_ios
        for _ in range(50):
            index.point_lookup(rng.randrange(200))
        out[name] = (enclave.cost.block_ios - before) * slot_blocks / 50
        index.free()
    return out


def test_extension_ring_oram(benchmark) -> None:
    raw = benchmark.pedantic(ring_vs_path, rounds=1, iterations=1)
    tree = ring_vs_path_in_tree()
    improvement_raw = raw["path"] / raw["ring"]
    improvement_tree = tree["path"] / tree["ring"]
    print_table(
        "Extension: Ring vs Path ORAM, slot-equivalents moved per access",
        ["setting", "path", "ring", "improvement"],
        [
            ["raw ORAM", f"{raw['path']:.1f}", f"{raw['ring']:.1f}",
             f"{improvement_raw:.2f}x"],
            ["B+ tree point lookup", f"{tree['path']:.1f}", f"{tree['ring']:.1f}",
             f"{improvement_tree:.2f}x"],
        ],
    )
    # Section 8's "approximately 1.5x".
    assert 1.2 <= improvement_raw <= 2.5, improvement_raw
    assert improvement_tree >= 1.1, improvement_tree


def shellsort_growth() -> dict[str, float]:
    schema = Schema([int_column("x")])

    def comparisons(sorter, n: int) -> int:
        enclave = fresh_enclave()
        table = FlatStorage(enclave, schema, n)
        rng = random.Random(n)
        for _ in range(n):
            table.fast_insert((rng.randrange(100_000),))
        before = enclave.cost.comparisons
        sorter(table)
        return enclave.cost.comparisons - before

    key = lambda row: (row[0],)  # noqa: E731
    out: dict[str, float] = {}
    for name, sorter in (
        ("bitonic", lambda t: bitonic_sort(t, key)),
        ("shellsort", lambda t: randomized_shellsort(t, key, rng=random.Random(1))),
    ):
        small = comparisons(sorter, 128)
        large = comparisons(sorter, 1024)
        out[f"{name}_128"] = float(small)
        out[f"{name}_1024"] = float(large)
        out[f"{name}_growth"] = large / small
    return out


def test_extension_randomized_shellsort(benchmark) -> None:
    results = benchmark.pedantic(shellsort_growth, rounds=1, iterations=1)
    print_table(
        "Extension: comparisons, bitonic vs randomized shellsort",
        ["sorter", "n=128", "n=1024", "growth (8x n)"],
        [
            ["bitonic", f"{results['bitonic_128']:,.0f}",
             f"{results['bitonic_1024']:,.0f}", f"{results['bitonic_growth']:.1f}x"],
            ["shellsort", f"{results['shellsort_128']:,.0f}",
             f"{results['shellsort_1024']:,.0f}", f"{results['shellsort_growth']:.1f}x"],
        ],
    )
    # O(n log n) grows strictly slower than O(n log^2 n).
    assert results["shellsort_growth"] < results["bitonic_growth"]


def wal_overhead() -> dict[str, float]:
    out: dict[str, float] = {}
    for label, wal in (("without_wal", False), ("with_wal", True)):
        db = ObliDB(cipher="null", wal=wal, seed=6)
        db.sql("CREATE TABLE t (k INT, v STR(8)) CAPACITY 128")
        snapshot = db.enclave.cost.snapshot()
        for i in range(100):
            db.sql(f"INSERT INTO t FAST VALUES ({i}, 'v{i}')")
        out[label] = db.enclave.cost.delta_since(snapshot).modeled_time_ms()
    return out


def test_extension_wal_overhead(benchmark) -> None:
    results = benchmark.pedantic(wal_overhead, rounds=1, iterations=1)
    overhead = results["with_wal"] / results["without_wal"]
    print_table(
        "Extension: WAL overhead on 100 fast inserts",
        ["configuration", "modeled ms", "overhead"],
        [
            ["without WAL", f"{results['without_wal']:.3f}", "1.0"],
            ["with WAL", f"{results['with_wal']:.3f}", f"{overhead:.2f}x"],
        ],
    )
    # One extra sequential write per statement: small constant overhead.
    # (Fast inserts are themselves single writes, so the relative overhead
    # is at its worst here — about 2x; on oblivious full-pass writes it
    # would be negligible.)
    assert overhead <= 3.0, overhead