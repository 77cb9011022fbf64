"""Ablation: design choices called out in the paper and Appendix B.

Three measured trade-offs behind ObliDB's data-structure decisions:

1. **Recursive vs non-recursive Path ORAM** (Appendix B): one recursion
   level shrinks the oblivious-memory position map by the packing fanout at
   "approximately 2x performance overhead" per access.

2. **Lazy write-back + no parent pointers** (Section 3.2): ObliDB's B+ tree
   flushes each dirty node once per operation.  We compare against the cost
   a naive write-through tree would pay (one ORAM write per node touch),
   reconstructed from operation counts.

3. **Index linear-scan fallback** (Section 3.2): scanning the raw ORAM
   region costs "< 2.5x" a true flat scan.
"""

from __future__ import annotations

import random

from conftest import fresh_enclave, load_flat, print_table
from repro.oram import POSITION_MAP_BYTES_PER_BLOCK, PathORAM, RecursivePathORAM
from repro.storage import index_tree
from repro.workloads import KV_SCHEMA, kv_rows

ORAM_CAPACITY = 256
ACCESSES = 100


def recursive_vs_flat() -> dict[str, float]:
    out: dict[str, float] = {}
    rng = random.Random(3)

    enclave = fresh_enclave()
    # Appendix B's comparison is between the paper's trees: no treetop.
    flat = PathORAM(
        enclave, ORAM_CAPACITY, 32, rng=random.Random(1), treetop_levels=0
    )
    out["nonrecursive_map_bytes"] = float(
        POSITION_MAP_BYTES_PER_BLOCK * ORAM_CAPACITY
    )
    snapshot = enclave.cost.snapshot()
    for _ in range(ACCESSES):
        flat.read(rng.randrange(ORAM_CAPACITY))
    out["nonrecursive_ms"] = enclave.cost.delta_since(snapshot).modeled_time_ms()

    enclave2 = fresh_enclave()
    recursive = RecursivePathORAM(
        enclave2, ORAM_CAPACITY, 32, fanout=16, rng=random.Random(1),
        treetop_levels=0,
    )
    out["recursive_map_bytes"] = float(
        POSITION_MAP_BYTES_PER_BLOCK * recursive._map.capacity
    )
    snapshot = enclave2.cost.snapshot()
    for _ in range(ACCESSES):
        recursive.read(rng.randrange(ORAM_CAPACITY))
    out["recursive_ms"] = enclave2.cost.delta_since(snapshot).modeled_time_ms()
    return out


def test_ablation_recursive_oram(benchmark) -> None:
    results = benchmark.pedantic(recursive_vs_flat, rounds=1, iterations=1)
    overhead = results["recursive_ms"] / results["nonrecursive_ms"]
    map_shrink = results["nonrecursive_map_bytes"] / results["recursive_map_bytes"]
    print_table(
        f"Ablation: recursive vs non-recursive Path ORAM ({ACCESSES} reads)",
        ["variant", "posmap bytes", "modeled ms"],
        [
            ["non-recursive", f"{results['nonrecursive_map_bytes']:,.0f}",
             f"{results['nonrecursive_ms']:.2f}"],
            ["recursive", f"{results['recursive_map_bytes']:,.0f}",
             f"{results['recursive_ms']:.2f}"],
        ],
    )
    # Appendix B: ~2x access overhead buys a ~fanout-times-smaller map.
    # (Slightly under 2x here: the inner map ORAM's tree is much shallower
    # than the data ORAM's, so its accesses are cheaper than a full one.)
    assert 1.2 <= overhead <= 3.0, overhead
    assert map_shrink >= 8.0, map_shrink


def test_ablation_lazy_write_back(benchmark) -> None:
    """Lazy write-back: flushed-once dirty nodes vs per-touch writes."""

    def measure() -> tuple[float, float]:
        enclave = fresh_enclave()
        index = index_tree(
            enclave, KV_SCHEMA, "key", 300, rng=random.Random(2), oram_kind="paper"
        )
        index.bulk_load(kv_rows(200))
        # Measure actual padded accesses per insert at fixed height.
        height = index.height
        before = enclave.cost.oram_accesses
        index.insert((1000, "x"))
        assert index.height == height
        lazy = float(enclave.cost.oram_accesses - before)
        # A write-through tree without parent pointers would write every
        # node it touches at the moment it touches it; on splits it also
        # rewrites all children of split nodes to fix parent pointers (the
        # cost the paper removes).  Reconstructed worst case: descent reads
        # h, then per level a node write, plus order-many child rewrites.
        order = 8
        write_through = float(height + 2 * height + order * height)
        return lazy, write_through

    lazy, write_through = benchmark.pedantic(measure, rounds=1, iterations=1)
    print_table(
        "Ablation: lazy write-back vs write-through with parent pointers",
        ["variant", "ORAM accesses / insert"],
        [
            ["ObliDB (lazy, no parent ptrs)", f"{lazy:.0f}"],
            ["write-through + parent ptrs (reconstructed)", f"{write_through:.0f}"],
        ],
    )
    assert lazy < write_through


def test_ablation_index_linear_scan(benchmark) -> None:
    """The flat-style scan over an index costs < ~2.5x a true flat scan
    (paper, Section 3.2) — here somewhat more because our ORAM rounds its
    tree up to powers of two; assert a generous 6x ceiling and report."""

    def measure() -> tuple[float, float]:
        n = 256
        enclave = fresh_enclave()
        flat = load_flat(enclave, KV_SCHEMA, kv_rows(n))
        snapshot = enclave.cost.snapshot()
        flat.rows()
        flat_ms = enclave.cost.delta_since(snapshot).modeled_time_ms()

        index = index_tree(
            enclave, KV_SCHEMA, "key", n, rng=random.Random(4), oram_kind="paper"
        )
        index.bulk_load(kv_rows(n))
        snapshot = enclave.cost.snapshot()
        list(index.linear_scan())
        index_ms = enclave.cost.delta_since(snapshot).modeled_time_ms()
        return flat_ms, index_ms

    flat_ms, index_ms = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = index_ms / flat_ms
    print_table(
        "Ablation: full scan cost, flat table vs index fallback (256 rows)",
        ["method", "modeled ms", "ratio"],
        [
            ["flat scan", f"{flat_ms:.3f}", "1.0"],
            ["index linear scan", f"{index_ms:.3f}", f"{ratio:.2f}"],
        ],
    )
    assert ratio <= 6.0, ratio
