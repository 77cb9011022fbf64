"""Figure 2: asymptotic performance of the storage methods.

Paper's table (N = table rows):

    Method        Flat     Index        Both
    Space         N        ~4N          ~5N
    Point read    O(N)     O(log^2 N)   O(log^2 N)
    Large read    O(N)     O(N)         O(N)
    Insert        O(1)*    O(log^2 N)   O(log^2 N)   (*fast flat insert)
    Update        O(N)     O(log^2 N)   O(N)
    Delete        O(N)     O(log^2 N)   O(N)

We measure modeled block-IO cost at a ladder of sizes and fit growth laws:
flat operations must fit a power law with exponent ~1 (linear), fast flat
insert ~0 (constant), and indexed point operations a polylog law.
"""

from __future__ import annotations

import random

import pytest

from conftest import fresh_enclave, load_flat, print_table
from repro.analysis import fit_power_law
from repro.oram.path_oram import PathORAM
from repro.storage import index_tree
from repro.workloads import KV_SCHEMA, kv_rows

SIZES = [128, 256, 512, 1024]


def _flat_costs() -> dict[str, list[float]]:
    costs: dict[str, list[float]] = {
        "point_read": [], "insert_fast": [], "insert": [], "update": [], "delete": [],
    }
    for n in SIZES:
        enclave = fresh_enclave()
        table = load_flat(enclave, KV_SCHEMA, kv_rows(n - 2), capacity=n)

        def cost_of(fn) -> float:
            before = enclave.cost.block_ios
            fn()
            return float(enclave.cost.block_ios - before)

        costs["point_read"].append(
            cost_of(lambda: [row for row in table.rows() if row[0] == 5])
        )
        costs["insert_fast"].append(cost_of(lambda: table.fast_insert((n + 1, "x"))))
        costs["insert"].append(cost_of(lambda: table.insert((n + 2, "y"))))
        costs["update"].append(
            cost_of(lambda: table.update(lambda r: r[0] == 7, lambda r: (r[0], "u")))
        )
        costs["delete"].append(cost_of(lambda: table.delete(lambda r: r[0] == 9)))
    return costs


def _indexed_costs() -> dict[str, list[float]]:
    costs: dict[str, list[float]] = {"point_read": [], "insert": [], "delete": []}
    for n in SIZES:
        enclave = fresh_enclave()
        index = index_tree(
            enclave, KV_SCHEMA, "key", n + 8, rng=random.Random(1), oram_kind="paper"
        )
        index.bulk_load(kv_rows(n))

        before = enclave.cost.block_ios
        index.search(n // 2)
        costs["point_read"].append(float(enclave.cost.block_ios - before))

        before = enclave.cost.block_ios
        index.insert((n + 1, "x"))
        costs["insert"].append(float(enclave.cost.block_ios - before))

        before = enclave.cost.block_ios
        index.delete(n + 1)
        costs["delete"].append(float(enclave.cost.block_ios - before))
    return costs


def test_fig2_flat_asymptotics(benchmark) -> None:
    costs = benchmark.pedantic(_flat_costs, rounds=1, iterations=1)
    rows = []
    for op, series in costs.items():
        exponent = fit_power_law(SIZES, series)
        rows.append([op, *[f"{c:,.0f}" for c in series], f"{exponent:.2f}"])
    print_table(
        "Figure 2 (flat): block IOs vs N and fitted exponent",
        ["operation", *map(str, SIZES), "exp"],
        rows,
    )
    # Paper: flat point read / insert / update / delete are O(N).
    for op in ("point_read", "insert", "update", "delete"):
        exponent = fit_power_law(SIZES, costs[op])
        assert 0.9 <= exponent <= 1.1, (op, exponent)
    # Paper: fast insert is O(1).
    assert fit_power_law(SIZES, costs["insert_fast"]) == pytest.approx(0.0, abs=0.1)


def test_fig2_indexed_asymptotics(benchmark) -> None:
    costs = benchmark.pedantic(_indexed_costs, rounds=1, iterations=1)
    rows = []
    for op, series in costs.items():
        exponent = fit_power_law(SIZES, series)
        rows.append([op, *[f"{c:,.0f}" for c in series], f"{exponent:.2f}"])
    print_table(
        "Figure 2 (indexed): block IOs vs N and fitted exponent",
        ["operation", *map(str, SIZES), "exp"],
        rows,
    )
    # Paper: indexed operations are O(log^2 N) — far below linear.  The
    # power-law exponent over this ladder must be well under 0.8.
    for op, series in costs.items():
        exponent = fit_power_law(SIZES, series)
        assert exponent < 0.8, (op, exponent, series)


def test_fig2_space_overhead(benchmark) -> None:
    """Index storage costs ~4N from Path ORAM (plus node overhead)."""

    def measure() -> tuple[int, int]:
        n = 256
        enclave = fresh_enclave()
        flat = load_flat(enclave, KV_SCHEMA, kv_rows(n), capacity=n)
        flat_bytes = enclave.untrusted.region(flat.region_name).stored_bytes()
        index = index_tree(
            enclave, KV_SCHEMA, "key", n, rng=random.Random(1), oram_kind="paper"
        )
        index.bulk_load(kv_rows(n))
        oram = index.oram
        assert isinstance(oram, PathORAM)
        index_bytes = enclave.untrusted.region(oram.region_name).stored_bytes()
        return flat_bytes, index_bytes

    flat_bytes, index_bytes = benchmark.pedantic(measure, rounds=1, iterations=1)
    ratio = index_bytes / flat_bytes
    print_table(
        "Figure 2 (space): bytes stored for 256 rows",
        ["method", "bytes", "ratio"],
        [
            ["flat", f"{flat_bytes:,}", "1.0"],
            ["indexed", f"{index_bytes:,}", f"{ratio:.1f}"],
        ],
    )
    # Paper: ~4x from ORAM; node overhead pushes it somewhat higher here.
    assert 3.0 <= ratio <= 16.0
