"""Microbenchmark for the hardened write path (PR 6).

Measures what the durability work costs and what group commit buys:

* **WAL ingest: per-record vs group commit.**  ``append`` seals and
  commits one record at a time (one ledger-head commit per statement);
  ``append_many`` seals the batch with one keystream pass, stores it as
  one range write, and commits the head once.  Acceptance (asserted when
  recording — it compares two wall-clock timings): the group-committed
  ingest of the full batch beats the per-record loop.

* **Crash recovery wall-clock.**  ``ObliDB.recover`` replays a log of
  one CREATE plus N fast inserts into a fresh database, then the
  fsck-style ``verify()`` sweep checks the result.

Under ``BENCH_RECORD=1`` results go to ``BENCH_recovery.json``.
``BENCH_SMOKE=1`` shrinks the workload ~8x (the CI bench-smoke job).
"""

from __future__ import annotations

import time

from repro import ObliDB
from repro.enclave import Enclave
from repro.engine import WriteAheadLog

from conftest import BENCH_RECORD, BENCH_SMOKE, REPEATS, print_table, record_bench

N = 128 if BENCH_SMOKE else 1024

INSERTS = [f"INSERT INTO t FAST VALUES ({i}, 'v{i}')" for i in range(N)]
STATEMENTS = [
    f"CREATE TABLE t (id INT, v STR(8)) CAPACITY {N} METHOD flat",
    *INSERTS,
]


def _wal_enclave() -> Enclave:
    return Enclave(
        oblivious_memory_bytes=1 << 24,
        cipher="authenticated",
        keep_trace_events=False,
    )


def _best_ingest(append_fn) -> float:
    """Best-of wall-clock for appending all N inserts to a fresh WAL."""
    best = float("inf")
    for _ in range(REPEATS):
        wal = WriteAheadLog(_wal_enclave())
        start = time.perf_counter()
        append_fn(wal)
        best = min(best, time.perf_counter() - start)
        assert wal.committed_count == N
    return best


class TestRecoveryMicrobench:
    def test_group_commit_and_recovery(self) -> None:
        results: dict[str, float] = {}
        table_rows: list[list] = []

        # --- WAL ingest: per-record vs group commit -------------------
        def per_record(wal: WriteAheadLog) -> None:
            for statement in INSERTS:
                wal.append(statement)

        def group_commit(wal: WriteAheadLog) -> None:
            wal.append_many(INSERTS)

        per_record_s = _best_ingest(per_record)
        group_s = _best_ingest(group_commit)
        speedup = per_record_s / group_s
        results["wal_per_record_seconds"] = per_record_s
        results["wal_group_commit_seconds"] = group_s
        results["wal_group_commit_speedup"] = speedup
        table_rows.append(
            [f"WAL ingest n={N}, per-record append", f"{per_record_s:.4f} s"]
        )
        table_rows.append(
            [
                f"WAL ingest n={N}, one append_many",
                f"{group_s:.4f} s ({speedup:.1f}x faster)",
            ]
        )

        # --- crash recovery + verify wall-clock -----------------------
        crashed = ObliDB(cipher="null", wal=True, seed=11)
        for statement in STATEMENTS:
            crashed.sql(statement)

        recovery_best = float("inf")
        verify_best = float("inf")
        for _ in range(REPEATS):
            recovered = ObliDB(cipher="null", seed=12)
            start = time.perf_counter()
            report = recovered.recover(crashed.wal)
            recovery_best = min(recovery_best, time.perf_counter() - start)
            assert (report.replayed, report.dropped_tail) == (len(STATEMENTS), 0)
            start = time.perf_counter()
            assert recovered.verify().ok
            verify_best = min(verify_best, time.perf_counter() - start)
        results["recovery_seconds"] = recovery_best
        results["verify_seconds"] = verify_best
        table_rows.append(
            [
                f"recover() replay of {len(STATEMENTS)} statements",
                f"{recovery_best:.4f} s",
            ]
        )
        table_rows.append(["verify() sweep of recovered state", f"{verify_best:.4f} s"])

        print_table(
            "Recovery & group-commit microbenchmark",
            ["stage", "time"],
            table_rows,
        )

        record_bench(
            "recovery",
            {
                "benchmark": "recovery",
                "wal_cipher": "authenticated",
                "replay_cipher": "null",
                "rows": N,
                "repeats_best_of": REPEATS,
                "results": {k: round(v, 6) for k, v in results.items()},
            },
        )

        # Acceptance: group commit must beat the per-record append loop.
        if BENCH_RECORD:
            assert speedup > 1, f"group commit {speedup:.2f}x not faster"
