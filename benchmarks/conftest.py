"""Shared helpers for the figure-reproduction benchmarks.

Every module in this directory regenerates one table or figure from the
paper's evaluation (Section 7).  Two kinds of measurements are reported:

* **modeled time** — the deterministic cost model (block transfers, ORAM
  accesses, comparisons priced in microseconds; see
  ``repro.enclave.counters``).  This is what the figure *shapes* are
  compared on, since a pure-Python simulator's wall-clock does not transfer
  to the paper's SGX testbed.
* **wall-clock** — via pytest-benchmark, for regression tracking.

Tables are printed with ``-s`` or captured in the benchmark report's
``extra_info``.  Sizes are scaled down from the paper (documented per
module and in EXPERIMENTS.md).
"""

from __future__ import annotations

import json
import os
import random
import time
from pathlib import Path
from typing import Iterable

from repro.enclave import Enclave
from repro.storage import FlatStorage, Schema, StorageMethod, Table

#: Smoke mode (``BENCH_SMOKE=1``): the ``test_perf_*`` modules shrink their
#: workloads ~8x.  CI runs them this way on every push so the perf harnesses
#: cannot silently rot; real measurements use the default full sizes.
BENCH_SMOKE = os.environ.get("BENCH_SMOKE", "") not in ("", "0")

#: Record mode (``BENCH_RECORD=1``, full sizes only): the one switch under
#: which the ``test_perf_*`` modules rewrite the tracked ``BENCH_*.json``
#: files and assert wall-clock *ratios* (one timing against another, which
#: only means something on a quiet host).  A default run records nothing,
#: so it leaves the working tree clean, and asserts only deterministic
#: modeled costs and absolute sanity ceilings.
BENCH_RECORD = not BENCH_SMOKE and os.environ.get("BENCH_RECORD", "") not in ("", "0")

#: Timing repetitions of :func:`best_of`.
REPEATS = 1 if BENCH_SMOKE else 3

_REPO_ROOT = Path(__file__).resolve().parents[1]


def best_of(fn, repeats: int = REPEATS) -> float:
    """Minimum wall-clock seconds of ``repeats`` calls of ``fn``."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def record_bench(name: str, payload: dict, section: str | None = None) -> None:
    """Write ``payload`` to ``BENCH_<name>.json`` at the repository root —
    under ``BENCH_RECORD=1`` only.

    With ``section`` the payload replaces that one key of the existing
    file and the other keys stay (a module whose tests each record a part).
    """
    if not BENCH_RECORD:
        return
    path = _REPO_ROOT / f"BENCH_{name}.json"
    if section is not None:
        try:
            existing = json.loads(path.read_text())
        except (FileNotFoundError, json.JSONDecodeError):
            existing = {}
        payload = {**existing, section: payload}
    payload = {**payload, "host_cores": os.cpu_count()}
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def fresh_enclave(oblivious_memory_bytes: int = 1 << 26) -> Enclave:
    """A benchmark enclave: cost-only cipher, digest-only tracing."""
    return Enclave(
        oblivious_memory_bytes=oblivious_memory_bytes,
        cipher="null",
        keep_trace_events=False,
    )


def load_flat(
    enclave: Enclave, schema: Schema, rows: Iterable[tuple], capacity: int | None = None
) -> FlatStorage:
    rows = list(rows)
    table = FlatStorage(enclave, schema, capacity or max(1, len(rows)))
    for row in rows:
        table.fast_insert(row)
    return table


def load_table(
    enclave: Enclave,
    name: str,
    schema: Schema,
    rows: Iterable[tuple],
    method: StorageMethod,
    key_column: str | None,
    capacity: int | None = None,
    seed: int = 1,
    oram_kind: str = "path",
) -> Table:
    rows = list(rows)
    table = Table(
        enclave,
        name,
        schema,
        capacity or max(1, len(rows)),
        method=method,
        key_column=key_column,
        rng=random.Random(seed),
        oram_kind=oram_kind,
    )
    for row in rows:
        table.insert(row, fast=table.flat is not None)
    return table


def measure_modeled_ms(enclave: Enclave, fn) -> float:
    """Run ``fn`` and return the modeled milliseconds it consumed."""
    snapshot = enclave.cost.snapshot()
    fn()
    return enclave.cost.delta_since(snapshot).modeled_time_ms()


def print_table(title: str, header: list[str], rows: list[list]) -> None:
    """Print an aligned text table (the harness's figure output)."""
    print(f"\n=== {title} ===")
    widths = [
        max(len(str(header[i])), *(len(str(row[i])) for row in rows)) if rows else len(str(header[i]))
        for i in range(len(header))
    ]
    print("  ".join(str(h).ljust(w) for h, w in zip(header, widths)))
    for row in rows:
        print("  ".join(str(c).ljust(w) for c, w in zip(row, widths)))


def fmt(value: float) -> str:
    """Compact numeric formatting for table cells."""
    if value >= 100:
        return f"{value:,.0f}"
    if value >= 1:
        return f"{value:.2f}"
    return f"{value:.4f}"
