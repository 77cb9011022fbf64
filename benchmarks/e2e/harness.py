"""Timing and recording shared by everything under ``benchmarks/e2e``.

One place for the statistics (nearest-rank percentiles, the quiet-half rule,
run-to-run spread), the metric catalogue read from the root
``BENCHMARK.json``, the host record, the JSON writer and the regression-bound
check that ``run.py compare`` applies.  Nothing here touches ``repro`` and
nothing is written unless a caller passes a path, so the parent process of a
benchmark run and the smoke test can both import it freely.
"""

from __future__ import annotations

import json
import math
import os
import platform
import statistics
import subprocess
from pathlib import Path

#: ``benchmarks/e2e`` -> repository (or checkout) root.
ROOT = Path(__file__).resolve().parents[2]
SPEC_PATH = ROOT / "BENCHMARK.json"

#: Payload bytes of every benchmark table's rows (~0.5 KB once sealed).
ROW_BYTES = 488

#: End-to-end metrics the one-command output adds to the ``end_to_end`` list
#: of ``BENCHMARK.json``.  That file's contract wants every listed metric
#: from every workload and none that can read 0, so the metric that exists
#: on one workload only (``recover_s``) and the one that must read 0
#: (``failed_frac``, an absolute bound) live here instead.
WORKLOAD_ONLY_METRICS = [
    {"name": "recover_s", "unit": "s", "better": "lower", "bound": 0.20},
    {"name": "failed_frac", "unit": "frac", "better": "lower", "bound": 0.0},
]


def percentile(sorted_values: list[float], fraction: float) -> float:
    """Nearest-rank percentile of an already sorted, non-empty list."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def quiet_half(segments: list[list[float]]) -> tuple[list[list[float]], float]:
    """The faster half of a run's equal-work segments, and how much longer
    the slower half took (a share of the faster half's time).

    Each segment holds the latencies of the same mix of statements, so only
    the host (and the constants a seed drew) makes one slower than another.
    Interference only ever adds time, and on a shared host it comes in
    episodes of seconds: the half of the segments it touched least is the
    steadiest estimate of what the program itself costs.  The second value
    is the price of that choice made visible — a stall the *program* causes
    in fewer than half of the segments moves it, and not the first.
    """
    ranked = sorted(segments, key=sum)
    kept = ranked[: (len(ranked) + 1) // 2]
    slower = ranked[len(kept) :]
    if not slower:
        return kept, 0.0
    mean_kept = sum(map(sum, kept)) / len(kept)
    return kept, sum(map(sum, slower)) / len(slower) / mean_kept - 1.0


def load_spec() -> dict:
    """The benchmark contract: workloads, metrics, directions and bounds."""
    return json.loads(SPEC_PATH.read_text())


def end_to_end_metrics(spec: dict) -> list[dict]:
    return list(spec["end_to_end"]) + WORKLOAD_ONLY_METRICS


def host_record() -> dict[str, object]:
    """Where a set of numbers was taken: cores, interpreter, commit."""
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            check=True,
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = "unknown"  # a bare checkout (the driver's) has no .git
    return {
        "cores": os.cpu_count(),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit,
    }


def write_json(path: Path, record: dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def format_value(value: float) -> str:
    if value == 0 or abs(value) >= 100:
        return f"{value:,.1f}"
    if abs(value) >= 1:
        return f"{value:.3f}"
    return f"{value:.5f}"


def print_table(title: str, header: list[str], rows: list[list[str]]) -> None:
    print(f"\n== {title} ==")
    widths = [
        max(len(header[i]), *(len(row[i]) for row in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    for line in [header, *rows]:
        print("  ".join(cell.ljust(width) for cell, width in zip(line, widths)).rstrip())


# ----------------------------------------------------------------------
# Regression bounds
# ----------------------------------------------------------------------
def worse_by(metric: dict, base: float, new: float) -> float:
    """How much ``new`` is worse than ``base`` as a share of ``base``
    (negative when it is better)."""
    if base == 0:
        return 0.0 if new == 0 else math.inf
    change = (new - base) / abs(base)
    return change if metric["better"] == "lower" else -change


def spread(values: list[float]) -> float:
    """Run-to-run spread as a share of the median: the interquartile
    distance once there are enough runs for quartiles, the range before."""
    if len(values) < 2:
        return 0.0
    middle = statistics.median(values)
    if middle == 0:
        return 0.0
    if len(values) >= 4:
        first, _, third = statistics.quantiles(values, n=4)
        return (third - first) / abs(middle)
    return (max(values) - min(values)) / abs(middle)


def verdict(metric: dict, base_runs: list[float], new_runs: list[float]) -> str:
    """``ok`` / ``worse`` / ``unresolved`` for one metric on one workload.

    A spread wider than the bound cannot resolve a difference of the
    bound's size, so the metric is reported unresolved rather than
    unchanged — unless every new run beats every base run.
    """
    bound = metric["bound"]
    lower = metric["better"] == "lower"
    if max(spread(base_runs), spread(new_runs)) > bound:
        clean_win = (
            max(new_runs) < min(base_runs) if lower else min(new_runs) > max(base_runs)
        )
        return "ok" if clean_win else "unresolved"
    regression = worse_by(
        metric, statistics.median(base_runs), statistics.median(new_runs)
    )
    return "worse" if regression > bound else "ok"


def compare(spec: dict, base: dict, new: dict) -> tuple[list[list[str]], int]:
    """Rows of (workload, metric, base, new, ratio, bound, verdict) for two
    recorded files, and the number of ``worse`` verdicts."""

    def runs_of(record: dict, workload: str, name: str) -> list[float]:
        return [
            run["end_to_end"][name]
            for run in record["runs"]
            if run["workload"] == workload and name in run["end_to_end"]
        ]

    rows: list[list[str]] = []
    worse = 0
    for workload in [entry["name"] for entry in spec["workloads"]]:
        for metric in end_to_end_metrics(spec):
            base_runs = runs_of(base, workload, metric["name"])
            new_runs = runs_of(new, workload, metric["name"])
            if not base_runs or not new_runs:
                continue
            base_mid = statistics.median(base_runs)
            new_mid = statistics.median(new_runs)
            outcome = verdict(metric, base_runs, new_runs)
            worse += outcome == "worse"
            ratio = f"{new_mid / base_mid:.3f}x of {format_value(base_mid)}" if base_mid else "-"
            rows.append(
                [
                    workload,
                    metric["name"],
                    f"{format_value(base_mid)} {metric['unit']} (n={len(base_runs)})",
                    f"{format_value(new_mid)} {metric['unit']} (n={len(new_runs)})",
                    ratio,
                    f"{metric['bound']:.0%} {metric['better']}",
                    outcome,
                ]
            )
    return rows, worse
