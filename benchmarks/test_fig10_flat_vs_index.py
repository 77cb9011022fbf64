"""Figure 10: flat vs indexed operators over synthetic data.

Paper (100k rows): range selections and group-bys over a small percentage
of the table are far faster on the index; as the retrieved fraction grows,
the flat scan closes in (flat cost is constant in the fraction, index cost
grows with the segment).  Indexed DELETE and UPDATE beat flat ones; the
fast flat INSERT beats the indexed insert.

Scaled: 2,000 rows; retrieval sweep 0.5 %-2.5 % (as in the figure's x-axis).
"""

from __future__ import annotations

import random

from conftest import fresh_enclave, load_flat, print_table
from repro.engine import run_select_algorithm
from repro.operators import (
    AggregateFunction,
    AggregateSpec,
    And,
    Comparison,
    group_by_aggregate,
    materialize_index_range,
)
from repro.planner import plan_select
from repro.storage import IndexedStorage
from repro.workloads import WIDE_SCHEMA, wide_rows

ROWS = 2000
FRACTIONS = [0.005, 0.010, 0.015, 0.020, 0.025]


def build() -> tuple:
    enclave = fresh_enclave()
    rows = wide_rows(ROWS)
    flat = load_flat(enclave, WIDE_SCHEMA, rows, capacity=ROWS + 16)
    index = IndexedStorage(
        enclave, WIDE_SCHEMA, "id", ROWS + 128, rng=random.Random(3), oram_kind="paper"
    )
    index.load(rows)
    return enclave, flat, index


def run_sweep() -> dict[str, dict[float, float]]:
    enclave, flat, index = build()
    results: dict[str, dict[float, float]] = {
        "flat_select": {}, "index_select": {},
        "flat_group_by": {}, "index_group_by": {},
    }
    specs = [AggregateSpec(AggregateFunction.SUM, "measure")]
    for fraction in FRACTIONS:
        span = max(1, int(ROWS * fraction))
        low, high = 100, 100 + span - 1
        predicate = And(Comparison("id", ">=", low), Comparison("id", "<=", high))

        snapshot = enclave.cost.snapshot()
        decision = plan_select(flat, predicate)
        run_select_algorithm(
            flat,
            predicate,
            decision.algorithm,
            decision.stats.matching_rows,
            buffer_rows=decision.buffer_rows,
            compact_output=decision.compact_output,
        ).free()
        results["flat_select"][fraction] = enclave.cost.delta_since(
            snapshot
        ).modeled_time_ms()

        snapshot = enclave.cost.snapshot()
        materialize_index_range(index, low, high).free()
        results["index_select"][fraction] = enclave.cost.delta_since(
            snapshot
        ).modeled_time_ms()

        snapshot = enclave.cost.snapshot()
        group_by_aggregate(flat, "category", specs, predicate=predicate).free()
        results["flat_group_by"][fraction] = enclave.cost.delta_since(
            snapshot
        ).modeled_time_ms()

        snapshot = enclave.cost.snapshot()
        segment = materialize_index_range(index, low, high)
        group_by_aggregate(segment, "category", specs).free()
        segment.free()
        results["index_group_by"][fraction] = enclave.cost.delta_since(
            snapshot
        ).modeled_time_ms()
    return results


def run_point_ops() -> dict[str, float]:
    enclave, flat, index = build()
    ops = 10
    out: dict[str, float] = {}

    snapshot = enclave.cost.snapshot()
    for i in range(ops):
        flat.fast_insert((ROWS + i, 0, 0, "new"))
    out["flat_insert"] = enclave.cost.delta_since(snapshot).modeled_time_ms() / ops

    snapshot = enclave.cost.snapshot()
    for i in range(ops):
        index.insert((ROWS + 100 + i, 0, 0, "new"))
    out["index_insert"] = enclave.cost.delta_since(snapshot).modeled_time_ms() / ops

    snapshot = enclave.cost.snapshot()
    for i in range(ops):
        flat.delete(lambda row, k=ROWS + i: row[0] == k)
    out["flat_delete"] = enclave.cost.delta_since(snapshot).modeled_time_ms() / ops

    snapshot = enclave.cost.snapshot()
    for i in range(ops):
        index.delete_key(ROWS + 100 + i)
    out["index_delete"] = enclave.cost.delta_since(snapshot).modeled_time_ms() / ops

    snapshot = enclave.cost.snapshot()
    for i in range(ops):
        flat.update(lambda row, k=i: row[0] == k, lambda row: (*row[:3], "upd"))
    out["flat_update"] = enclave.cost.delta_since(snapshot).modeled_time_ms() / ops

    snapshot = enclave.cost.snapshot()
    for i in range(ops):
        index.update_key(i, lambda row: (*row[:3], "upd"))
    out["index_update"] = enclave.cost.delta_since(snapshot).modeled_time_ms() / ops
    return out


def test_fig10_select_and_group_by_sweep(benchmark) -> None:
    results = benchmark.pedantic(run_sweep, rounds=1, iterations=1)
    print_table(
        f"Figure 10: modeled ms vs %% of {ROWS}-row table retrieved",
        ["percent", "flat_select", "index_select", "flat_group_by", "index_group_by"],
        [
            [
                f"{fraction * 100:.1f}",
                f"{results['flat_select'][fraction]:.3f}",
                f"{results['index_select'][fraction]:.3f}",
                f"{results['flat_group_by'][fraction]:.3f}",
                f"{results['index_group_by'][fraction]:.3f}",
            ]
            for fraction in FRACTIONS
        ],
    )
    # Small retrievals: index wins by a wide margin.
    smallest = FRACTIONS[0]
    assert results["index_select"][smallest] * 3 < results["flat_select"][smallest]
    assert results["index_group_by"][smallest] * 3 < results["flat_group_by"][smallest]
    # Index cost grows with the segment; flat cost stays ~constant.
    index_growth = results["index_select"][FRACTIONS[-1]] / results["index_select"][smallest]
    flat_growth = results["flat_select"][FRACTIONS[-1]] / results["flat_select"][smallest]
    assert index_growth > 2.0
    assert flat_growth < 1.5


def test_fig10_point_operations(benchmark) -> None:
    results = benchmark.pedantic(run_point_ops, rounds=1, iterations=1)
    print_table(
        "Figure 10: point write operations, modeled ms/op",
        ["operation", "flat", "indexed"],
        [
            ["insert", f"{results['flat_insert']:.4f}", f"{results['index_insert']:.4f}"],
            ["delete", f"{results['flat_delete']:.4f}", f"{results['index_delete']:.4f}"],
            ["update", f"{results['flat_update']:.4f}", f"{results['index_update']:.4f}"],
        ],
    )
    # Paper: fast flat insert beats indexed insert; indexed delete/update
    # beat the flat full-scan versions.
    assert results["flat_insert"] < results["index_insert"]
    assert results["index_delete"] < results["flat_delete"]
    assert results["index_update"] < results["flat_update"]
