#!/usr/bin/env python3
"""Padding mode for size-sensitive data: a medical-records scenario.

Section 2.3 of the paper: sometimes even *result sizes* are sensitive — if
a hospital's database answers a query about a rare diagnosis, the count of
returned rows itself reveals the incidence.  Padding mode pads every
intermediate and final result to a public bound and disables the query
planner, so an observer learns only the logical plan and the bound.

This example runs the same diagnosis queries with and without padding and
shows (a) answers are unchanged, (b) in padding mode the leaked plan sizes
are constants independent of the true result, and (c) the cost of that
protection.

Run:  python examples/padded_medical.py
"""

import random

from repro import ObliDB, PaddingConfig
from repro.planner import GroupByNode, SelectNode

SCHEMA_SQL = (
    "CREATE TABLE patients (pid INT, diagnosis STR(12), age INT, ward STR(4))"
    " CAPACITY 256"
)

DIAGNOSES = ["flu"] * 60 + ["diabetes"] * 25 + ["rare_zx"] * 3  # skewed incidence


def build(padding: PaddingConfig | None) -> ObliDB:
    db = ObliDB(cipher="null", padding=padding, seed=11)
    db.sql(SCHEMA_SQL)
    rng = random.Random(5)
    table = db.table("patients")
    for pid, diagnosis in enumerate(DIAGNOSES):
        table.insert(
            (pid, diagnosis, rng.randint(20, 90), f"W{rng.randint(1, 4)}"),
            fast=True,
        )
    return db


def leaked_output_sizes(result) -> list[int]:
    return [
        node.output_rows
        for node in result.plan.root.walk()
        if isinstance(node, (SelectNode, GroupByNode))
    ]


def main() -> None:
    plain = build(None)
    padded = build(PaddingConfig(pad_rows=100, pad_groups=16))

    for diagnosis in ("flu", "rare_zx"):
        sql = f"SELECT * FROM patients WHERE diagnosis = '{diagnosis}'"
        plain_result = plain.sql(sql)
        padded_result = padded.sql(sql)
        assert sorted(plain_result.rows) == sorted(padded_result.rows)
        print(f"{diagnosis:10s}: {len(plain_result.rows):3d} real rows | "
              f"leaked output size: plain={leaked_output_sizes(plain_result)} "
              f"padded={leaked_output_sizes(padded_result)}")

    print("\n-> in padding mode both queries leak the SAME output size (100),")
    print("   hiding that 'rare_zx' is rare; normal mode leaks 60 vs 3.\n")

    # Grouped aggregation: group count also padded.
    sql = "SELECT diagnosis, COUNT(*) FROM patients GROUP BY diagnosis"
    plain_result = plain.sql(sql)
    padded_result = padded.sql(sql)
    print("incidence histogram (identical answers):", sorted(padded_result.rows))

    plain_cost = plain.sql(sql).cost["untrusted_reads"]
    padded_cost = padded.sql(sql).cost["untrusted_reads"]
    print(f"\npadding tax on the aggregate: {padded_cost / plain_cost:.2f}x "
          f"untrusted reads ({plain_cost} -> {padded_cost})")


if __name__ == "__main__":
    main()
