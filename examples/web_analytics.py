#!/usr/bin/env python3
"""Web analytics on an oblivious engine: the Big Data Benchmark workload.

Reproduces the paper's Section 7.1 scenario at laptop scale: the RANKINGS
and USERVISITS tables of the AMPLab Big Data Benchmark, with queries Q1-Q3
(filter, grouped aggregation, join), run on

* ObliDB with flat storage only (comparable to Opaque),
* ObliDB with an index on pageRank (the 19x Q1 winner), and
* the simulated Opaque and no-security baselines,

printing modeled time per system per query — a miniature Figure 7.

Run:  python examples/web_analytics.py
"""

from repro import ObliDB, StorageMethod
from repro.baselines import OpaqueSystem, PlainSystem
from repro.operators import AggregateFunction, AggregateSpec, Comparison
from repro.workloads import (
    Q1_SQL,
    Q2_SQL,
    Q3_SQL,
    RANKINGS_SCHEMA,
    USERVISITS_SCHEMA,
    generate,
)

ROWS = 800


def build_oblidb(data, method: StorageMethod) -> ObliDB:
    db = ObliDB(cipher="null", allow_continuous=False, seed=4)
    key = "pageRank" if method is not StorageMethod.FLAT else None
    db.create_table("rankings", RANKINGS_SCHEMA, ROWS, method=method, key_column=key)
    db.create_table("uservisits", USERVISITS_SCHEMA, ROWS)
    rankings = db.table("rankings")
    for row in data.rankings:
        rankings.insert(row, fast=rankings.flat is not None)
    uservisits = db.table("uservisits")
    for row in data.uservisits:
        uservisits.insert(row, fast=True)
    return db


def main() -> None:
    data = generate(rankings_rows=ROWS, uservisits_rows=ROWS, seed=99)
    print(f"generated {ROWS} rankings + {ROWS} uservisits rows\n")

    timings: dict[str, dict[str, float]] = {}

    for label, method in (
        ("oblidb-flat", StorageMethod.FLAT),
        ("oblidb-indexed", StorageMethod.BOTH),
    ):
        db = build_oblidb(data, method)
        timings[label] = {}
        for name, sql in (("Q1", Q1_SQL), ("Q2", Q2_SQL), ("Q3", Q3_SQL)):
            snapshot = db.cost_snapshot()
            result = db.sql(sql)
            timings[label][name] = db.cost_delta(snapshot).modeled_time_ms()
            if label == "oblidb-flat":
                print(f"{name}: {len(result.rows)} result rows; plan =")
                print(result.plan.describe())

    opaque = OpaqueSystem(oblivious_memory_bytes=1 << 21, cipher="null")
    opaque.create_table("rankings", RANKINGS_SCHEMA, ROWS)
    opaque.create_table("uservisits", USERVISITS_SCHEMA, ROWS)
    opaque.load_rows("rankings", data.rankings)
    opaque.load_rows("uservisits", data.uservisits)
    specs = [AggregateSpec(AggregateFunction.SUM, "adRevenue")]
    timings["opaque"] = {}
    for name, run in (
        ("Q1", lambda: opaque.filter("rankings", Comparison("pageRank", ">", 1000)).free()),
        ("Q2", lambda: opaque.group_by("uservisits", "ipPrefix", specs).free()),
        ("Q3", lambda: opaque.join("rankings", "uservisits", "pageURL", "destURL").free()),
    ):
        snapshot = opaque.enclave.cost.snapshot()
        run()
        timings["opaque"][name] = opaque.enclave.cost.delta_since(
            snapshot
        ).modeled_time_ms()

    plain = PlainSystem()
    plain.create_table("rankings", RANKINGS_SCHEMA)
    plain.create_table("uservisits", USERVISITS_SCHEMA)
    plain.load_rows("rankings", data.rankings)
    plain.load_rows("uservisits", data.uservisits)
    timings["spark-like"] = {}
    for name, run in (
        ("Q1", lambda: plain.filter("rankings", Comparison("pageRank", ">", 1000))),
        ("Q2", lambda: plain.group_by("uservisits", "ipPrefix", specs)),
        ("Q3", lambda: plain.join("rankings", "uservisits", "pageURL", "destURL")),
    ):
        snapshot = plain.cost.snapshot()
        run()
        timings["spark-like"][name] = plain.cost.delta_since(snapshot).modeled_time_ms()

    print("\nmodeled time (ms) — a miniature Figure 7:")
    print(f"{'system':<16}{'Q1':>8}{'Q2':>8}{'Q3':>8}")
    for system in ("opaque", "oblidb-flat", "oblidb-indexed", "spark-like"):
        row = timings[system]
        print(f"{system:<16}{row['Q1']:>8.2f}{row['Q2']:>8.2f}{row['Q3']:>8.2f}")
    q1_speedup = timings["opaque"]["Q1"] / timings["oblidb-indexed"]["Q1"]
    print(f"\nindexed ObliDB beats Opaque on Q1 by {q1_speedup:.1f}x "
          f"(paper: 19x at 180x this scale)")


if __name__ == "__main__":
    main()
