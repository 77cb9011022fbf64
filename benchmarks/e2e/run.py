#!/usr/bin/env python3
"""The end-to-end benchmark's one command.

    python3 benchmarks/e2e/run.py [--workload W]... [--seed S] [--traced] [--out FILE]
    python3 benchmarks/e2e/run.py compare A.json B.json

Each workload runs in a fresh child interpreter, one after another: SQL text
into ``ObliDBServer`` sessions, rows out, every answer checked against
sqlite3.  Every metric is printed by name with its unit; nothing is written
unless ``--out`` names a file (runs are appended to it, so a set of runs is
one file).  ``--traced`` repeats each workload with ``spans.py`` installed
and adds the per-layer metrics.

``--trace 0|1`` is the form the benchmark driver calls (with ``--workload``,
``--seed`` and ``--seconds``): one workload, and as the last line of output
one JSON object holding the ``end_to_end`` (0) or ``per_layer`` (1) metrics
that ``BENCHMARK.json`` lists.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import harness


def child(job: dict) -> None:
    """Measure one workload in this process; one JSON line on stdout."""
    sys.path.insert(0, str(harness.ROOT / "src"))
    recorder = None
    if job["traced"]:
        import spans

        recorder = spans.install()
    import workloads

    run = workloads.run_workload(
        job["workload"], job["seed"], job["seconds"], job["scale"], recorder
    )
    if recorder is not None:
        run["per_layer"].update(
            spans.layer_metrics(recorder, run, workloads.crypto_floor_us_per_block())
        )
    print(json.dumps(run))


def measure(workload: str, seed: int, seconds: float, scale: float, traced: bool) -> dict:
    job = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "scale": scale,
        "traced": traced,
    }
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--child", json.dumps(job)],
        stdout=subprocess.PIPE,
        text=True,
        check=False,
    )
    if done.returncode != 0:
        raise SystemExit(f"{workload}: child interpreter exited with {done.returncode}")
    return {**json.loads(done.stdout.splitlines()[-1]), "seconds": seconds, "scale": scale}


def print_run(spec: dict, run: dict) -> None:
    units = {
        metric["name"]: metric["unit"]
        for metric in harness.end_to_end_metrics(spec) + spec["per_layer"]
    }
    title = (
        f"{run['workload']}  seed={run['seed']}  statements={run['statements']}"
        f"  attempted={run['attempted']}  failed={run['failed']}"
    )
    rows = [
        [
            name,
            harness.format_value(value),
            units[name],
            f"n={run['latency_samples']}" if name.startswith("lat_") else "",
        ]
        for name, value in run["end_to_end"].items()
    ]
    harness.print_table(title, ["end-to-end metric", "value", "unit", "samples"], rows)
    if "traced" in run:
        rows = [
            [name, harness.format_value(value), units[name]]
            for name, value in sorted(run["per_layer"].items())
        ]
        harness.print_table(f"{run['workload']} per layer", ["layer metric", "value", "unit"], rows)


def driver_line(spec: dict, run: dict, trace: int) -> str:
    """The one JSON object the benchmark driver reads."""
    if trace:
        # A layer a workload never enters did no work there: 0 by count.
        values = {metric["name"]: 0.0 for metric in spec["per_layer"]} | run["per_layer"]
        listed = spec["per_layer"]
    else:
        values = run["end_to_end"]
        listed = spec["end_to_end"]
    metrics = {
        metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
        for metric in listed
    }
    return json.dumps(
        {
            "correct": run["failed"] == 0,
            "attempted": run["attempted"],
            "failed": run["failed"],
            "metrics": metrics,
        }
    )


def main(argv: list[str]) -> int:
    if argv[:1] == ["--child"]:
        child(json.loads(argv[1]))
        return 0
    spec = harness.load_spec()
    names = [workload["name"] for workload in spec["workloads"]]
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base", type=Path)
        parser.add_argument("new", type=Path)
        args = parser.parse_args(argv[1:])
        rows, worse = harness.compare(
            spec, json.loads(args.base.read_text()), json.loads(args.new.read_text())
        )
        harness.print_table(
            f"{args.new} against {args.base}",
            ["workload", "metric", "base", "new", "ratio", "bound", "verdict"],
            rows,
        )
        return 1 if worse else 0

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--seed", type=int, default=7, help="11 is the held-out seed")
    parser.add_argument(
        "--seconds",
        type=float,
        default=spec["run_seconds"],
        help="run length: statement counts scale with it, tables do not",
    )
    parser.add_argument(
        "--scale", type=float, default=1.0, help="shrinks tables and counts (the smoke test)"
    )
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)
    if args.trace is not None and len(args.workload or []) != 1:
        parser.error("--trace takes exactly one --workload")

    runs = []
    for workload in args.workload or names:
        run = measure(workload, args.seed, args.seconds, args.scale, traced=False)
        if args.traced or args.trace:
            traced = measure(workload, args.seed, args.seconds, args.scale, traced=True)
            run["traced"] = {
                key: traced[key] for key in ("attempted", "failed", "end_to_end")
            }
            run["attempted"] += traced["attempted"]
            run["failed"] += traced["failed"]
            run["per_layer"] = {
                **traced["per_layer"],
                "spans.overhead_frac": run["end_to_end"]["stmts_per_s"]
                / traced["end_to_end"]["stmts_per_s"]
                - 1.0,
            }
        print_run(spec, run)
        runs.append(run)
    if args.out is not None:
        record = json.loads(args.out.read_text()) if args.out.exists() else {"runs": []}
        record["host"] = {
            **harness.host_record(),
            "cipher": "AuthenticatedCipher",
            "row_bytes": harness.ROW_BYTES,
        }
        record["runs"].extend(runs)
        harness.write_json(args.out, record)
    if args.trace is not None:
        # The driver reads failures from this line, not from the exit code.
        print(driver_line(spec, runs[0], args.trace))
        return 0
    return 1 if any(run["failed"] for run in runs) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
