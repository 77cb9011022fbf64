#!/usr/bin/env python3
"""Quickstart: an oblivious database in a few lines.

Creates a table stored both flat and indexed, runs point, range, aggregate,
and write queries through the SQL interface, and shows the two things that
make ObliDB different from an ordinary engine:

* the *physical plan* each query leaked (the only query-dependent
  information an OS-level attacker learns), and
* the *cost counters* — how many encrypted blocks crossed the enclave
  boundary to keep the access pattern oblivious.

Run:  python examples/quickstart.py
"""

from repro import ObliDB


def main() -> None:
    db = ObliDB(seed=7)  # a fresh simulated enclave with real encryption

    db.sql(
        "CREATE TABLE employees (id INT, name STR(16), dept STR(8), salary INT)"
        " CAPACITY 128 METHOD both KEY id"
    )
    print("created table:", db.table_names())

    people = [
        (1, "ada", "eng", 1200),
        (2, "grace", "eng", 1400),
        (3, "edsger", "research", 1100),
        (4, "barbara", "eng", 1500),
        (5, "donald", "research", 1300),
        (6, "leslie", "ops", 1000),
    ]
    for row in people:
        db.sql(
            f"INSERT INTO employees VALUES ({row[0]}, '{row[1]}', '{row[2]}', {row[3]})"
        )

    # Point query: served by the oblivious B+ tree in O(log^2 N) accesses.
    result = db.sql("SELECT * FROM employees WHERE id = 4")
    print("\npoint query  ->", result.rows)
    print("leaked plan  ->")
    print(result.plan.describe())

    # Range query with a residual predicate on another column.
    result = db.sql(
        "SELECT name, salary FROM employees WHERE id >= 2 AND id <= 5 AND dept = 'eng'"
    )
    print("\nrange query  ->", result.rows)

    # Fused select + aggregate: no intermediate table, no size leakage.
    result = db.sql("SELECT COUNT(*), AVG(salary) FROM employees WHERE dept = 'eng'")
    print("\naggregate    ->", result.rows)
    print("blocks moved ->", result.cost["untrusted_reads"], "reads,",
          result.cost["untrusted_writes"], "writes")

    # Grouped aggregation.
    result = db.sql("SELECT dept, SUM(salary) FROM employees GROUP BY dept")
    print("\ngroup by     ->", sorted(result.rows))

    # Oblivious writes: a full uniform pass over the flat copy plus a
    # padded index update — the adversary can't tell what changed.
    db.sql("UPDATE employees SET salary = 1600 WHERE id = 1")
    db.sql("DELETE FROM employees WHERE dept = 'ops'")
    result = db.sql("SELECT COUNT(*) FROM employees")
    print("\nafter update+delete, rows =", result.scalar())


if __name__ == "__main__":
    main()
