"""Serving front-end throughput: coalescing under concurrent clients.

The serving layer cannot parallelize the engine (one enclave, one lock) —
its throughput win is *deduplication*: concurrent identical reads coalesce
onto one in-flight execution, so a repeated-read workload at high client
counts does a fraction of the engine work the same statements cost
sequentially.

Measured: sustained statements/second for the same per-client script at
1, 4, and 16 concurrent clients, against the baseline of the identical
total workload executed as sequential loops.  Also recorded: the
coalescing hit rate (fraction of admitted statements answered by joining
an in-flight leader) at each client count.

Acceptance (the ISSUE-8 bar; asserted when recording — it compares two
wall-clock rates): ≥ 2× sustained qps at 16 concurrent clients over 16
sequential loops.

Under ``BENCH_RECORD=1`` results go to ``BENCH_serving.json``.
``BENCH_SMOKE=1`` shrinks the workload (the CI bench-smoke job).
"""

from __future__ import annotations

import threading
import time

from repro import ObliDB, ObliDBServer

from conftest import BENCH_RECORD, BENCH_SMOKE, print_table, record_bench

N = 64 if BENCH_SMOKE else 128
ROUNDS = 3 if BENCH_SMOKE else 5
CLIENT_COUNTS = (1, 4, 16)

#: The hot read pool every client loops over (repeated-read workload).
QUERY_POOL = [
    "SELECT * FROM events WHERE id = 17",
    "SELECT * FROM events WHERE id >= 20 AND id <= 60",
    "SELECT COUNT(*), SUM(score) FROM events WHERE score < 500",
    "SELECT * FROM events WHERE id = 101",
]


def _build_db() -> ObliDB:
    db = ObliDB(
        cipher="null",
        oblivious_memory_bytes=1 << 22,
        seed=19,
        allow_continuous=False,
    )
    db.sql(
        "CREATE TABLE events (id INT, score INT) "
        f"CAPACITY {N} METHOD both KEY id"
    )
    db.insert_many(
        "events", [(i, (i * 389) % 1000) for i in range(N)], fast=True
    )
    return db


def _run_concurrent(clients: int) -> tuple[float, float]:
    """(qps, coalescing hit rate) for ``clients`` concurrent loopers."""
    db = _build_db()
    server = ObliDBServer(db)
    statements = clients * ROUNDS * len(QUERY_POOL)
    barrier = threading.Barrier(clients + 1)

    def client() -> None:
        session = server.session()
        barrier.wait()
        for _ in range(ROUNDS):
            for sql in QUERY_POOL:
                session.execute(sql)

    threads = [threading.Thread(target=client) for _ in range(clients)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    elapsed = time.perf_counter() - start
    assert server.stats.admitted == statements
    return statements / elapsed, server.stats.coalescing_hit_rate()


def _run_sequential(loops: int) -> float:
    """qps for the identical total workload as back-to-back loops."""
    db = _build_db()
    server = ObliDBServer(db)
    session = server.session()
    statements = loops * ROUNDS * len(QUERY_POOL)
    start = time.perf_counter()
    for _ in range(loops):
        for _ in range(ROUNDS):
            for sql in QUERY_POOL:
                session.execute(sql)
    elapsed = time.perf_counter() - start
    return statements / elapsed


class TestServingThroughput:
    def test_coalescing_throughput_scaling(self) -> None:
        results: dict[str, float] = {}
        table_rows: list[list] = []

        sequential_qps = _run_sequential(max(CLIENT_COUNTS))
        results["sequential_qps"] = sequential_qps
        table_rows.append(
            [f"{max(CLIENT_COUNTS)} sequential loops", f"{sequential_qps:,.1f} qps", "—"]
        )

        for clients in CLIENT_COUNTS:
            qps, hit_rate = _run_concurrent(clients)
            results[f"qps_{clients}_clients"] = qps
            results[f"coalescing_hit_rate_{clients}_clients"] = hit_rate
            table_rows.append(
                [
                    f"{clients} concurrent clients",
                    f"{qps:,.1f} qps",
                    f"{100 * hit_rate:.0f}% coalesced",
                ]
            )

        speedup = results["qps_16_clients"] / sequential_qps
        results["speedup_16_clients"] = speedup
        table_rows.append(["16-client speedup", f"{speedup:.2f}x", "—"])

        print_table(
            "Serving throughput (repeated-read pool, NullCipher)",
            ["workload", "throughput", "coalescing"],
            table_rows,
        )

        record_bench(
            "serving",
            {
                "benchmark": "serving_throughput",
                "cipher": "null",
                "rows": N,
                "rounds_per_client": ROUNDS,
                "query_pool": len(QUERY_POOL),
                "client_counts": list(CLIENT_COUNTS),
                "results": {k: round(v, 6) for k, v in results.items()},
            },
        )

        # Acceptance: coalescing must repay concurrency with a ≥ 2×
        # sustained-qps win at 16 clients over sequential loops.
        if BENCH_RECORD:
            assert speedup >= 2.0, f"16-client speedup {speedup:.2f}x < 2.0x"
        # Sanity: more clients coalesce more.
        assert (
            results["coalescing_hit_rate_16_clients"]
            >= results["coalescing_hit_rate_4_clients"]
        )
