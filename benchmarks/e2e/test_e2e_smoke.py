"""Smoke test of the end-to-end benchmark.

Every workload at 1/8 size through the one command, untraced and traced
(~15 s).  It checks what must hold at any size — no failed statement, the
predicted zeros, no file written — and leaves the timings alone: those are
read from a full-size run, never asserted in the gate.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
#: What an interpreter or pytest itself may leave behind, benchmark or not.
CACHES = {".git", "__pycache__", ".pytest_cache", ".hypothesis", ".benchmarks"}


def _tree() -> dict[str, tuple[int, int]]:
    snapshot = {}
    for directory, subdirectories, files in os.walk(ROOT):
        subdirectories[:] = [name for name in subdirectories if name not in CACHES]
        for name in files:
            path = os.path.join(directory, name)
            status = os.stat(path)
            snapshot[path] = (status.st_mtime_ns, status.st_size)
    return snapshot


def test_every_workload_untraced_and_traced(tmp_path):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    before = _tree()
    out = tmp_path / "smoke.json"
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--scale", "0.125", "--traced", "--out", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    assert _tree() == before, "the benchmark wrote inside the repository"

    record = json.loads(out.read_text())
    assert record["host"]["cores"] and record["host"]["python"]
    runs = {run["workload"]: run for run in record["runs"]}
    assert list(runs) == [workload["name"] for workload in spec["workloads"]]
    every_run = {metric["name"] for metric in spec["end_to_end"]} | {"failed_frac"}
    declared_layers = {metric["name"] for metric in spec["per_layer"]}
    for name, run in runs.items():
        assert run["failed"] == 0 and run["attempted"] > run["statements"]
        assert run["end_to_end"]["failed_frac"] == 0
        assert run["traced"]["end_to_end"]["failed_frac"] == 0
        expected = every_run | ({"recover_s"} if name == "write_durable" else set())
        assert set(run["end_to_end"]) == expected
        assert all(value > 0 for key, value in run["end_to_end"].items() if key != "failed_frac")
        assert set(run["per_layer"]) <= declared_layers
        # The layers' self times account for the closed loop they were
        # recorded in (two clients' worth of it on serving_mix).
        assert 0.8 < run["per_layer"]["spans.covered_frac"] < 1.05

    # Each workload bypasses what it was chosen to bypass.
    assert runs["analytic_scan"]["per_layer"]["oram.accesses_per_stmt"] == 0
    assert runs["point_lookup"]["per_layer"]["oram.accesses_per_stmt"] > 0
    for name in ("point_lookup", "analytic_scan"):
        assert runs[name]["per_layer"]["engine.wal.records_per_stmt"] == 0
    assert runs["write_durable"]["per_layer"]["engine.wal.records_per_stmt"] > 1
    assert runs["write_durable"]["per_layer"]["engine.wal.replayed_records"] > 0
    assert runs["serving_mix"]["per_layer"]["loadgen.offered_per_s"] > 0
